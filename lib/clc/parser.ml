(** Recursive-descent parser for the OpenCL C subset. *)

open Ast

type state = { toks : (Token.t * Loc.t) array; mutable cur : int }

let peek st = fst st.toks.(st.cur)
let peek_loc st = snd st.toks.(st.cur)

let peek_ahead st n =
  let i = st.cur + n in
  if i < Array.length st.toks then fst st.toks.(i) else Token.Eof

let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1

let next st =
  let t = peek st and l = peek_loc st in
  advance st;
  (t, l)

let expect_punct st p =
  match next st with
  | Token.Punct q, _ when q = p -> ()
  | tok, l -> Loc.errorf l "expected %S but found %a" p Token.pp tok

let eat_punct st p =
  match peek st with
  | Token.Punct q when q = p ->
      advance st;
      true
  | _ -> false

let eat_kw st k =
  match peek st with
  | Token.Kw q when q = k ->
      advance st;
      true
  | _ -> false

let expect_ident st =
  match next st with
  | Token.Ident name, _ -> name
  | tok, l -> Loc.errorf l "expected an identifier but found %a" Token.pp tok

(* -- Types -------------------------------------------------------------- *)

let scalar_of_name = function
  | "bool" -> Some Bool
  | "char" -> Some Char
  | "uchar" -> Some UChar
  | "short" -> Some Short
  | "ushort" -> Some UShort
  | "int" -> Some Int
  | "uint" -> Some UInt
  | "long" -> Some Long
  | "ulong" -> Some ULong
  | "float" -> Some Float
  | "size_t" -> Some Int (* flat model: size_t behaves as int *)
  | _ -> None

let vector_of_name name =
  let n = String.length name in
  if n < 2 then None
  else
    let digits_start =
      let rec back i =
        if i > 0 && name.[i - 1] >= '0' && name.[i - 1] <= '9' then back (i - 1)
        else i
      in
      back n
    in
    if digits_start = n || digits_start = 0 then None
    else
      let base = String.sub name 0 digits_start in
      let width = int_of_string (String.sub name digits_start (n - digits_start)) in
      match scalar_of_name base with
      | Some s when List.mem width [ 2; 3; 4; 8; 16 ] -> Some (Vector (s, width))
      | _ -> None

let is_type_qualifier = function
  | Token.Kw ("const" | "restrict" | "volatile") -> true
  | _ -> false

let is_addr_space_kw = function
  | Token.Kw ("global" | "local" | "constant" | "private") -> true
  | _ -> false

let addr_space_of_kw = function
  | "global" -> Global
  | "local" -> Local
  | "constant" -> Constant
  | _ -> Private

(* Does the token sequence at the cursor start a type? Used to resolve the
   cast-vs-expression ambiguity after '('. *)
let starts_type st =
  let rec scan n =
    match peek_ahead st n with
    | tok when is_type_qualifier tok || is_addr_space_kw tok -> scan (n + 1)
    | Token.Kw "unsigned" | Token.Kw "signed" -> true
    | Token.Kw
        ( "void" | "bool" | "char" | "uchar" | "short" | "ushort" | "int"
        | "uint" | "long" | "ulong" | "float" | "size_t" ) ->
        true
    | Token.Ident name -> vector_of_name name <> None
    | _ -> false
  in
  scan 0

let rec skip_qualifiers st =
  if is_type_qualifier (peek st) then begin
    advance st;
    skip_qualifiers st
  end

(* Parses [addr_space? qualifiers? base stars] and returns the type plus the
   explicit address space if one was written. *)
let parse_type st : addr_space option * ty =
  let space = ref None in
  let rec pre () =
    match peek st with
    | tok when is_type_qualifier tok ->
        advance st;
        pre ()
    | Token.Kw (("global" | "local" | "constant" | "private") as sp) ->
        advance st;
        space := Some (addr_space_of_kw sp);
        pre ()
    | _ -> ()
  in
  pre ();
  let l = peek_loc st in
  let base =
    match next st with
    | Token.Kw "void", _ -> Void
    | Token.Kw "unsigned", _ ->
        (match peek st with
        | Token.Kw ("char" | "short" | "int" | "long") -> (
            match next st with
            | Token.Kw "char", _ -> Scalar UChar
            | Token.Kw "short", _ -> Scalar UShort
            | Token.Kw "int", _ -> Scalar UInt
            | _ -> Scalar ULong)
        | _ -> Scalar UInt)
    | Token.Kw "signed", _ ->
        (match peek st with
        | Token.Kw ("char" | "short" | "int" | "long") -> (
            match next st with
            | Token.Kw "char", _ -> Scalar Char
            | Token.Kw "short", _ -> Scalar Short
            | Token.Kw "int", _ -> Scalar Int
            | _ -> Scalar Long)
        | _ -> Scalar Int)
    | Token.Kw kw, lk -> (
        match scalar_of_name kw with
        | Some s -> Scalar s
        | None -> Loc.errorf lk "%s does not start a type" kw)
    | Token.Ident name, lk -> (
        match vector_of_name name with
        | Some v -> v
        | None -> Loc.errorf lk "unknown type %s" name)
    | tok, lk -> Loc.errorf lk "expected a type, found %a" Token.pp tok
  in
  ignore l;
  let rec stars ty =
    if eat_punct st "*" then begin
      skip_qualifiers st;
      let sp = match !space with Some sp -> sp | None -> Private in
      stars (Ptr (sp, ty))
    end
    else ty
  in
  let ty = stars base in
  (!space, ty)

(* -- Expressions --------------------------------------------------------- *)

(* Precedence-climbing table for binary operators; level 0 is weakest. *)
let binop_levels =
  [| [ ("||", LOr) ];
     [ ("&&", LAnd) ];
     [ ("|", BOr) ];
     [ ("^", BXor) ];
     [ ("&", BAnd) ];
     [ ("==", Eq); ("!=", Ne) ];
     [ ("<", Lt); (">", Gt); ("<=", Le); (">=", Ge) ];
     [ ("<<", Shl); (">>", Shr) ];
     [ ("+", Add); ("-", Sub) ];
     [ ("*", Mul); ("/", Div); ("%", Rem) ] |]

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_cond st in
  let compound op =
    advance st;
    let rhs = parse_assign st in
    { desc = Assign (lhs, { desc = Binop (op, lhs, rhs); loc = lhs.loc }); loc = lhs.loc }
  in
  match peek st with
  | Token.Punct "=" ->
      advance st;
      let rhs = parse_assign st in
      { desc = Assign (lhs, rhs); loc = lhs.loc }
  | Token.Punct "+=" -> compound Add
  | Token.Punct "-=" -> compound Sub
  | Token.Punct "*=" -> compound Mul
  | Token.Punct "/=" -> compound Div
  | Token.Punct "%=" -> compound Rem
  | Token.Punct "<<=" -> compound Shl
  | Token.Punct ">>=" -> compound Shr
  | Token.Punct "&=" -> compound BAnd
  | Token.Punct "|=" -> compound BOr
  | Token.Punct "^=" -> compound BXor
  | _ -> lhs

and parse_cond st =
  let c = parse_binary st 0 in
  if eat_punct st "?" then begin
    let t = parse_expr st in
    expect_punct st ":";
    let e = parse_cond st in
    { desc = Cond (c, t, e); loc = c.loc }
  end
  else c

and parse_binary st level =
  if level >= Array.length binop_levels then parse_unary st
  else begin
    let lhs = ref (parse_binary st (level + 1)) in
    let ops = binop_levels.(level) in
    let rec loop () =
      match peek st with
      | Token.Punct p -> (
          match List.assoc_opt p ops with
          | Some op ->
              advance st;
              let rhs = parse_binary st (level + 1) in
              lhs := { desc = Binop (op, !lhs, rhs); loc = !lhs.loc };
              loop ()
          | None -> ())
      | _ -> ()
    in
    loop ();
    !lhs
  end

and parse_unary st =
  let l = peek_loc st in
  match peek st with
  | Token.Punct "-" ->
      advance st;
      { desc = Unop (Neg, parse_unary st); loc = l }
  | Token.Punct "+" ->
      advance st;
      parse_unary st
  | Token.Punct "!" ->
      advance st;
      { desc = Unop (Not, parse_unary st); loc = l }
  | Token.Punct "~" ->
      advance st;
      { desc = Unop (BNot, parse_unary st); loc = l }
  | Token.Punct "++" ->
      advance st;
      { desc = Pre_incr (true, parse_unary st); loc = l }
  | Token.Punct "--" ->
      advance st;
      { desc = Pre_incr (false, parse_unary st); loc = l }
  | Token.Punct "(" when starts_type_after_paren st ->
      advance st;
      let _, ty = parse_type st in
      expect_punct st ")";
      (* "(float4)(a, b, c, d)" is a vector literal; "(int)x" is a cast. *)
      (match (ty, peek st) with
      | (Vector _ | Scalar _), Token.Punct "(" ->
          advance st;
          let args = parse_args st in
          if List.length args > 1 then { desc = Vec_lit (ty, args); loc = l }
          else (
            match args with
            | [ e ] -> { desc = Cast (ty, e); loc = l }
            | _ -> Loc.errorf l "empty cast expression")
      | _ -> { desc = Cast (ty, parse_unary st); loc = l })
  | _ -> parse_postfix st

and starts_type_after_paren st =
  match peek st with
  | Token.Punct "(" ->
      let saved = st.cur in
      advance st;
      let r = starts_type st in
      st.cur <- saved;
      r
  | _ -> false

and parse_args st =
  if eat_punct st ")" then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if eat_punct st "," then loop (e :: acc)
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

and parse_postfix st =
  let e = ref (parse_primary st) in
  let rec loop () =
    match peek st with
    | Token.Punct "[" ->
        advance st;
        let i = parse_expr st in
        expect_punct st "]";
        e := { desc = Index (!e, i); loc = !e.loc };
        loop ()
    | Token.Punct "." ->
        advance st;
        let field = expect_ident st in
        e := { desc = Member (!e, field); loc = !e.loc };
        loop ()
    | Token.Punct "++" ->
        advance st;
        e := { desc = Post_incr (true, !e); loc = !e.loc };
        loop ()
    | Token.Punct "--" ->
        advance st;
        e := { desc = Post_incr (false, !e); loc = !e.loc };
        loop ()
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st =
  match next st with
  | Token.Int_lit n, l -> { desc = Int_lit n; loc = l }
  | Token.Float_lit f, l -> { desc = Float_lit f; loc = l }
  | Token.Ident name, l ->
      if peek st = Token.Punct "(" then begin
        advance st;
        let args = parse_args st in
        { desc = Call (name, args); loc = l }
      end
      else { desc = Ident name; loc = l }
  | Token.Punct "(", _ ->
      let e = parse_expr st in
      expect_punct st ")";
      e
  | tok, l -> Loc.errorf l "expected an expression, found %a" Token.pp tok

(* -- Statements ---------------------------------------------------------- *)

let rec parse_array_suffix st ty =
  if eat_punct st "[" then begin
    let l = peek_loc st in
    let size =
      match next st with
      | Token.Int_lit n, _ when n > 0 -> n
      | Token.Int_lit n, lk -> Loc.errorf lk "array size must be positive, found %d" n
      | tok, lk ->
          Loc.errorf lk
            "array sizes must be integer constants after preprocessing, found %a"
            Token.pp tok
    in
    expect_punct st "]";
    ignore l;
    let inner = parse_array_suffix st ty in
    Array (inner, size)
  end
  else ty

let rec parse_stmt st : stmt =
  let l = peek_loc st in
  match peek st with
  | Token.Punct "{" ->
      advance st;
      let body = parse_block_items st in
      { s_desc = Sblock body; s_loc = l }
  | Token.Kw "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let then_s = parse_stmt st in
      let else_s = if eat_kw st "else" then Some (parse_stmt st) else None in
      { s_desc = Sif (c, then_s, else_s); s_loc = l }
  | Token.Kw "for" ->
      advance st;
      expect_punct st "(";
      let init =
        if eat_punct st ";" then None
        else if starts_type st then begin
          let d = parse_decl_stmt st in
          Some d
        end
        else begin
          let e = parse_expr st in
          expect_punct st ";";
          Some { s_desc = Sexpr e; s_loc = e.loc }
        end
      in
      let cond = if peek st = Token.Punct ";" then None else Some (parse_expr st) in
      expect_punct st ";";
      let step = if peek st = Token.Punct ")" then None else Some (parse_expr st) in
      expect_punct st ")";
      let body = parse_stmt st in
      { s_desc = Sfor (init, cond, step, body); s_loc = l }
  | Token.Kw "while" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let body = parse_stmt st in
      { s_desc = Swhile (c, body); s_loc = l }
  | Token.Kw "do" ->
      advance st;
      let body = parse_stmt st in
      if not (eat_kw st "while") then
        Loc.errorf (peek_loc st) "expected 'while' after do-body";
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      expect_punct st ";";
      { s_desc = Sdo (body, c); s_loc = l }
  | Token.Kw "return" ->
      advance st;
      let e = if peek st = Token.Punct ";" then None else Some (parse_expr st) in
      expect_punct st ";";
      { s_desc = Sreturn e; s_loc = l }
  | Token.Kw "break" ->
      advance st;
      expect_punct st ";";
      { s_desc = Sbreak; s_loc = l }
  | Token.Kw "continue" ->
      advance st;
      expect_punct st ";";
      { s_desc = Scontinue; s_loc = l }
  | _ when starts_type st -> parse_decl_stmt st
  | _ ->
      let e = parse_expr st in
      expect_punct st ";";
      { s_desc = Sexpr e; s_loc = l }

(* One declaration statement; comma-separated declarators become a block. *)
and parse_decl_stmt st : stmt =
  let l = peek_loc st in
  let space, base_ty = parse_type st in
  let space = match space with Some sp -> sp | None -> Private in
  let one () =
    let dl = peek_loc st in
    let name = expect_ident st in
    let ty = parse_array_suffix st base_ty in
    let init = if eat_punct st "=" then Some (parse_expr st) else None in
    { d_name = name; d_ty = ty; d_space = space; d_init = init; d_loc = dl }
  in
  let rec loop acc =
    let d = one () in
    if eat_punct st "," then loop (d :: acc)
    else begin
      expect_punct st ";";
      List.rev (d :: acc)
    end
  in
  match loop [] with
  | [ d ] -> { s_desc = Sdecl d; s_loc = l }
  | ds ->
      { s_desc = Sblock (List.map (fun d -> { s_desc = Sdecl d; s_loc = d.d_loc }) ds);
        s_loc = l }

and parse_block_items st : stmt list =
  let rec loop acc =
    if eat_punct st "}" then List.rev acc
    else if peek st = Token.Eof then
      Loc.errorf (peek_loc st) "unexpected end of file inside a block"
    else loop (parse_stmt st :: acc)
  in
  loop []

(* -- Top level ----------------------------------------------------------- *)

let parse_param st : param =
  let l = peek_loc st in
  let space, ty = parse_type st in
  skip_qualifiers st;
  let name = expect_ident st in
  let ty = parse_array_suffix st ty in
  ignore space;
  { p_name = name; p_ty = ty; p_loc = l }

let parse_kernel st : kernel =
  let l = peek_loc st in
  if not (eat_kw st "kernel") then
    Loc.errorf l "top-level declarations must be __kernel functions";
  (match parse_type st with
  | _, Void -> ()
  | _, ty -> Loc.errorf l "kernels must return void, not %s" (ty_name ty));
  let name = expect_ident st in
  expect_punct st "(";
  let params =
    if eat_punct st ")" then []
    else begin
      let rec loop acc =
        let p = parse_param st in
        if eat_punct st "," then loop (p :: acc)
        else begin
          expect_punct st ")";
          List.rev (p :: acc)
        end
      in
      loop []
    end
  in
  expect_punct st "{";
  let body = parse_block_items st in
  { k_name = name; k_params = params; k_body = body; k_loc = l }

let parse_program toks : program =
  let st = { toks = Array.of_list toks; cur = 0 } in
  let rec loop acc =
    if peek st = Token.Eof then { kernels = List.rev acc }
    else loop (parse_kernel st :: acc)
  in
  loop []

let parse ?defines src = parse_program (Lexer.tokenize ?defines src)
