(* Front-end tests: lexer, preprocessor, parser, typing rules. *)

open Grover_clc

let lex ?defines src =
  List.map fst (Lexer.tokenize ?defines src)
  |> List.filter (fun t -> t <> Token.Eof)

let toks = Alcotest.testable Token.pp Token.equal

(* -- Lexer ----------------------------------------------------------------- *)

let test_lex_basic () =
  Alcotest.(check (list toks))
    "tokens"
    [ Token.Kw "int"; Token.Ident "x"; Token.Punct "="; Token.Int_lit 42;
      Token.Punct ";" ]
    (lex "int x = 42;")

let test_lex_canonical_keywords () =
  Alcotest.(check (list toks))
    "__kernel = kernel"
    [ Token.Kw "kernel"; Token.Kw "global"; Token.Kw "local" ]
    (lex "__kernel __global local")

let test_lex_floats () =
  Alcotest.(check (list toks))
    "floats"
    [ Token.Float_lit 1.5; Token.Float_lit 2.0; Token.Float_lit 0.5;
      Token.Float_lit 1e-3 ]
    (lex "1.5 2.0f 0.5f 1e-3f")

let test_lex_float_vs_member () =
  (* 'a[i].x' must not glue '. x' into a float. *)
  Alcotest.(check (list toks))
    "member access"
    [ Token.Ident "a"; Token.Punct "["; Token.Ident "i"; Token.Punct "]";
      Token.Punct "."; Token.Ident "x" ]
    (lex "a[i].x")

let test_lex_hex () =
  Alcotest.(check (list toks)) "hex" [ Token.Int_lit 255 ] (lex "0xFF")

let test_lex_operators () =
  Alcotest.(check (list toks))
    "multi-char ops"
    [ Token.Punct "<<="; Token.Punct ">>"; Token.Punct "<="; Token.Punct "==";
      Token.Punct "&&"; Token.Punct "++" ]
    (lex "<<= >> <= == && ++")

let test_lex_comments () =
  Alcotest.(check (list toks))
    "comments stripped"
    [ Token.Int_lit 1; Token.Int_lit 2 ]
    (lex "1 /* mid /* not nested */ // line\n 2 // trailing")

let test_macro_define () =
  Alcotest.(check (list toks))
    "#define substitution"
    [ Token.Int_lit 16; Token.Punct "*"; Token.Int_lit 16 ]
    (lex "#define S 16\nS * S")

let test_macro_nested () =
  Alcotest.(check (list toks))
    "nested macros"
    [ Token.Punct "("; Token.Int_lit 4; Token.Punct "+"; Token.Int_lit 1;
      Token.Punct ")" ]
    (lex "#define A 4\n#define B (A + 1)\nB")

let test_macro_external_defines () =
  Alcotest.(check (list toks))
    "-D style defines"
    [ Token.Int_lit 32 ]
    (lex ~defines:[ ("WIDTH", "32") ] "WIDTH")

let test_macro_undef () =
  Alcotest.(check (list toks))
    "#undef"
    [ Token.Int_lit 8; Token.Ident "S" ]
    (lex "#define S 8\nS\n#undef S\nS")

let test_lex_error_reporting () =
  match Lexer.tokenize "int @ x" with
  | exception Loc.Error ({ line = 1; col = 5 }, _) -> ()
  | exception Loc.Error (l, m) ->
      Alcotest.failf "wrong location %a for %s" Loc.pp l m
  | _ -> Alcotest.fail "expected a lexer error"

(* Located lexer errors, pinned: the location and message of each. *)
let test_lex_error_messages () =
  let err ?defines src =
    match Lexer.tokenize ?defines src with
    | exception Loc.Error (l, m) -> Some (l.Loc.line, l.Loc.col, m)
    | _ -> None
  in
  let check what want got =
    Alcotest.(check (option (triple int int string))) what want got
  in
  check "unterminated comment" (Some (2, 3, "unterminated comment"))
    (err "int x;\n  /* open\n  more *");
  check "unterminated comment at the end" (Some (1, 1, "unterminated comment"))
    (err "/*");
  check "unexpected character" (Some (1, 5, "unexpected character '@'"))
    (err "int @ x");
  check "unexpected character after newlines" (Some (3, 2, "unexpected character '$'"))
    (err "a\nb\n $");
  check "unexpected byte" (Some (1, 3, "unexpected character '\\195'"))
    (err "x \xc3\xa9");
  check "unexpected character in a define" (Some (1, 1, "unexpected character '`'"))
    (err ~defines:[ ("D", "`") ] "D");
  check "a lone backslash" (Some (1, 2, "unexpected character '\\\\'")) (err " \\ ")

(* Reference punctuator lexer: the 47 punctuators as a list tried
   longest first, with whitespace and both comment forms skipped. The
   property below feeds it and [Lexer.tokenize] strings of punctuation
   characters and compares tokens, locations and errors. *)
let ref_puncts =
  [ "<<="; ">>="; "..."; "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||";
    "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "++"; "--"; "->";
    "+"; "-"; "*"; "/"; "%"; "<"; ">"; "="; "!"; "&"; "|"; "^"; "~";
    "("; ")"; "["; "]"; "{"; "}"; ";"; ","; "."; "?"; ":" ]

let ref_lex (src : string) : ((Token.t * (int * int)) list, int * int * string) result =
  let n = String.length src in
  let starts i p = i + String.length p <= n && String.sub src i (String.length p) = p in
  let rec go i line bol acc =
    let col = i - bol + 1 in
    if i >= n then Ok (List.rev ((Token.Eof, (line, col)) :: acc))
    else
      match src.[i] with
      | ' ' -> go (i + 1) line bol acc
      | '\n' -> go (i + 1) (line + 1) (i + 1) acc
      | _ when starts i "//" -> (
          match String.index_from_opt src i '\n' with
          | Some j -> go j line bol acc
          | None -> go n line bol acc)
      | _ when starts i "/*" ->
          let rec close j l b =
            if j + 1 >= n then Error (line, col, "unterminated comment")
            else if starts j "*/" then go (j + 2) l b acc
            else if src.[j] = '\n' then close (j + 1) (l + 1) (j + 1)
            else close (j + 1) l b
          in
          close (i + 2) line bol
      | c -> (
          match List.find_opt (starts i) ref_puncts with
          | Some p -> go (i + String.length p) line bol ((Token.Punct p, (line, col)) :: acc)
          | None -> Error (line, col, Printf.sprintf "unexpected character %C" c))
  in
  go 0 1 0 []

let prop_punctuators_match_reference =
  QCheck.Test.make ~name:"punctuators, comments and locations match the list lexer" ~count:500
    QCheck.(
      set_print (Printf.sprintf "%S")
        (map ~rev:(fun s -> List.of_seq (String.to_seq s))
           (fun cs -> String.of_seq (List.to_seq cs))
           (list_of_size (Gen.int_range 0 24) (oneofl (List.of_seq (String.to_seq "<>=.!&|+-*/%^~()[]{};,?: \n@"))))))
    (fun src ->
      let got =
        match Lexer.tokenize src with
        | toks -> Ok (List.map (fun (t, (l : Loc.t)) -> (t, (l.Loc.line, l.Loc.col))) toks)
        | exception Loc.Error (l, m) -> Error (l.Loc.line, l.Loc.col, m)
      in
      got = ref_lex src)

(* The keyword lookup against its definition: a keyword, or "__" and a
   keyword, canonicalises to the keyword; nothing else does. *)
let prop_keywords_match_definition =
  let reference s =
    let stripped =
      if String.length s > 2 && String.sub s 0 2 = "__" then String.sub s 2 (String.length s - 2)
      else s
    in
    if List.mem stripped Token.keywords then Some stripped else None
  in
  let words = Token.keywords @ List.map (fun k -> "__" ^ k) Token.keywords @ [ "__"; "_"; "kern"; "x" ] in
  QCheck.Test.make ~name:"keyword table = keyword definition" ~count:500
    QCheck.(pair (oneofl words) (oneofl [ ""; "_"; "__"; "s"; "1" ]))
    (fun (w, affix) ->
      List.for_all
        (fun s -> Token.canonical_keyword s = reference s)
        [ w; affix ^ w; w ^ affix ])

(* The canonical token stream is the compile cache's key material, so a
   lexer change must leave it byte-identical: the MD5 of
   [Lexer.canonical_source] for each suite source under its defines and
   for each example kernel, pinned from the lexer that allocated per
   character. *)
let canonical_md5 ?defines src =
  Digest.to_hex (Digest.string (Lexer.canonical_source ?defines src))

let pinned_suite_md5 =
  [ ("AMD-SS", "1805965af20c08aac277895137d7b457");
    ("AMD-MT", "a12a6dee9b8040fc5ed846387510bbbf");
    ("NVD-MT", "eea5976003f07cd3814cdae49a02a9df");
    ("AMD-RG", "303d3c19e87157b289344e2b63bf96d4");
    ("AMD-MM", "ac9e37344324facd155c96d1d62a09dc");
    ("NVD-MM-A", "9fdbe045c5b101b5507661c1bb504108");
    ("NVD-MM-B", "9fdbe045c5b101b5507661c1bb504108");
    ("NVD-MM-AB", "9fdbe045c5b101b5507661c1bb504108");
    ("NVD-NBody", "d6c84913860bb12ea6c10ca7d38e5704");
    ("PAB-ST", "d3b173eead4c675bee14f21121529c99");
    ("ROD-SC", "9ba34802ab54b5a0f96b5bfb014f5285");
    ("TNG-GEMM4", "46070178bcd905bdc13b050ff1f35654") ]

let pinned_example_md5 =
  [ ("bad_divergent_barrier.cl", "93922d94561e2f00fdfdc42200b628f2");
    ("bad_oob_index.cl", "63431e7f4c9b7e90bdedd7a9d53e8405");
    ("bad_racy_store.cl", "ff852edcf0afc34431eeeb44621e3953");
    ("divergent_loop.cl", "0b4c7004a75cef30438639effb4ef3aa");
    ("divergent_store.cl", "2acd06fcfb8a598e01307328bf1a3d48");
    ("gemm_float4.cl", "46070178bcd905bdc13b050ff1f35654");
    ("guarded_matmul.cl", "9fdbe045c5b101b5507661c1bb504108");
    ("private_array.cl", "b0df9e3230318a5ace87dc23ef54a43c");
    ("saxpy.cl", "9f0ebf09fbf64c018b7d6b005a1864fd");
    ("tiled_matmul.cl", "d958667e16d243914ff2d6d71d53aa58");
    ("transpose_tile.cl", "21fd09b13898e1cfbf3655b8d74b4064");
    ("uniform_branch_barrier.cl", "4bfc7ccefbad4f15fac59faf3b8b3a7b") ]

let examples_dir = "../examples/kernels"

let test_canonical_pinned () =
  let suite =
    List.map
      (fun (c : Grover_suite.Kit.case) ->
        (c.Grover_suite.Kit.id, canonical_md5 ~defines:c.Grover_suite.Kit.defines c.Grover_suite.Kit.source))
      Grover_suite.Suite.all
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cl")
    |> List.sort compare
    |> List.map (fun f ->
           (f, canonical_md5 (In_channel.with_open_bin (Filename.concat examples_dir f) In_channel.input_all)))
  in
  Alcotest.(check (list (pair string string))) "suite sources" pinned_suite_md5 suite;
  Alcotest.(check (list (pair string string))) "example kernels" pinned_example_md5 examples

(* -- Parser ----------------------------------------------------------------- *)

let parse_kernel src =
  match (Parser.parse src).Ast.kernels with
  | [ k ] -> k
  | ks -> Alcotest.failf "expected 1 kernel, got %d" (List.length ks)

let mt_source =
  {|
#define S 16
__kernel void transpose(__global float *out, __global const float *in,
                        int W, int H) {
  __local float lm[S][S];
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  int wx = get_group_id(0);
  int wy = get_group_id(1);
  lm[ly][lx] = in[(wx * S + ly) * W + (wy * S + lx)];
  barrier(CLK_LOCAL_MEM_FENCE);
  float val = lm[lx][ly];
  int gx = get_global_id(0);
  int gy = get_global_id(1);
  out[gy * H + gx] = val;
}
|}

let test_parse_mt () =
  let k = parse_kernel mt_source in
  Alcotest.(check string) "name" "transpose" k.Ast.k_name;
  Alcotest.(check int) "params" 4 (List.length k.Ast.k_params);
  (* The local array declaration must carry the Local space and S*S size. *)
  let found = ref false in
  List.iter
    (fun s ->
      match s.Ast.s_desc with
      | Ast.Sdecl d when d.Ast.d_name = "lm" ->
          found := true;
          Alcotest.(check bool) "local space" true (d.Ast.d_space = Ast.Local);
          Alcotest.(check int) "total elems" 256 (Sema.array_length d.Ast.d_ty)
      | _ -> ())
    k.Ast.k_body;
  Alcotest.(check bool) "lm declared" true !found

let test_parse_precedence () =
  let k = parse_kernel
      "__kernel void f(__global int *a) { a[0] = 1 + 2 * 3; }"
  in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sexpr { desc = Ast.Assign (_, rhs); _ }; _ } ] -> (
      match rhs.Ast.desc with
      | Ast.Binop (Ast.Add, { desc = Ast.Int_lit 1; _ },
                   { desc = Ast.Binop (Ast.Mul, _, _); _ }) ->
          ()
      | _ -> Alcotest.fail "precedence wrong: expected 1 + (2 * 3)")
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_vector_literal () =
  let k =
    parse_kernel
      "__kernel void f(__global float4 *a) { a[0] = (float4)(1.0f, 2.0f, 3.0f, 4.0f); }"
  in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sexpr { desc = Ast.Assign (_, rhs); _ }; _ } ] -> (
      match rhs.Ast.desc with
      | Ast.Vec_lit (Ast.Vector (Ast.Float, 4), args) ->
          Alcotest.(check int) "4 components" 4 (List.length args)
      | _ -> Alcotest.fail "expected a float4 literal")
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_cast_vs_paren () =
  let k = parse_kernel "__kernel void f(__global int *a, float x) { a[0] = (int)x; }" in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sexpr { desc = Ast.Assign (_, rhs); _ }; _ } ] -> (
      match rhs.Ast.desc with
      | Ast.Cast (Ast.Scalar Ast.Int, _) -> ()
      | _ -> Alcotest.fail "expected a cast")
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_for_loop () =
  let k =
    parse_kernel
      "__kernel void f(__global int *a, int n) { for (int i = 0; i < n; i++) a[i] = i; }"
  in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sfor (Some _, Some _, Some _, _); _ } ] -> ()
  | _ -> Alcotest.fail "expected a for loop with all three clauses"

let test_parse_compound_assign () =
  let k = parse_kernel "__kernel void f(__global int *a) { a[0] += 2; }" in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sexpr { desc = Ast.Assign (_, rhs); _ }; _ } ] -> (
      match rhs.Ast.desc with
      | Ast.Binop (Ast.Add, _, _) -> ()
      | _ -> Alcotest.fail "+= must desugar to assign of add")
  | _ -> Alcotest.fail "unexpected body shape"

let test_parse_multi_declarator () =
  let k = parse_kernel "__kernel void f() { int i = 1, j = 2; }" in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sblock [ d1; d2 ]; _ } ] ->
      (match (d1.Ast.s_desc, d2.Ast.s_desc) with
      | Ast.Sdecl a, Ast.Sdecl b ->
          Alcotest.(check string) "first" "i" a.Ast.d_name;
          Alcotest.(check string) "second" "j" b.Ast.d_name
      | _ -> Alcotest.fail "expected two declarations")
  | _ -> Alcotest.fail "expected a block of two declarations"

let test_parse_error_location () =
  match Parser.parse "__kernel void f( { }" with
  | exception Loc.Error (_, msg) ->
      Alcotest.(check bool) "message mentions expectation" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_ternary () =
  let k = parse_kernel "__kernel void f(__global int *a, int n) { a[0] = n > 0 ? n : -n; }" in
  match k.Ast.k_body with
  | [ { Ast.s_desc = Ast.Sexpr { desc = Ast.Assign (_, { desc = Ast.Cond _; _ }); _ }; _ } ] -> ()
  | _ -> Alcotest.fail "expected a conditional expression"

(* -- Sema typing rules ------------------------------------------------------ *)

let test_sema_conversions () =
  let loc = Loc.dummy in
  Alcotest.(check string) "int+float"
    "float"
    (Ast.ty_name (Sema.usual_conversions loc (Ast.Scalar Ast.Int) (Ast.Scalar Ast.Float)));
  Alcotest.(check string) "int+uint"
    "uint"
    (Ast.ty_name (Sema.usual_conversions loc (Ast.Scalar Ast.Int) (Ast.Scalar Ast.UInt)));
  Alcotest.(check string) "float4+float"
    "float4"
    (Ast.ty_name
       (Sema.usual_conversions loc (Ast.Vector (Ast.Float, 4)) (Ast.Scalar Ast.Float)))

let test_sema_sizeof () =
  Alcotest.(check int) "float" 4 (Sema.sizeof (Ast.Scalar Ast.Float));
  Alcotest.(check int) "float4" 16 (Sema.sizeof (Ast.Vector (Ast.Float, 4)));
  Alcotest.(check int) "float3 pads to 4" 16 (Sema.sizeof (Ast.Vector (Ast.Float, 3)));
  Alcotest.(check int) "int[4][4]" 64
    (Sema.sizeof (Ast.Array (Ast.Array (Ast.Scalar Ast.Int, 4), 4)))

let test_sema_components () =
  Alcotest.(check int) "x" 0 (Sema.component_index Loc.dummy ~width:4 "x");
  Alcotest.(check int) "w" 3 (Sema.component_index Loc.dummy ~width:4 "w");
  Alcotest.(check int) "s2" 2 (Sema.component_index Loc.dummy ~width:4 "s2");
  (match Sema.component_index Loc.dummy ~width:2 "z" with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail ".z out of range for width 2")

let test_sema_builtins () =
  let loc = Loc.dummy in
  Alcotest.(check string) "get_local_id" "int"
    (Ast.ty_name (Sema.builtin_result loc "get_local_id" [ Ast.Scalar Ast.Int ]));
  Alcotest.(check string) "sqrt float" "float"
    (Ast.ty_name (Sema.builtin_result loc "sqrt" [ Ast.Scalar Ast.Float ]));
  Alcotest.(check string) "dot" "float"
    (Ast.ty_name
       (Sema.builtin_result loc "dot"
          [ Ast.Vector (Ast.Float, 4); Ast.Vector (Ast.Float, 4) ]));
  match Sema.builtin_result loc "frobnicate" [] with
  | exception Loc.Error _ -> ()
  | _ -> Alcotest.fail "unknown builtin must be rejected"

let suite =
  [ ( "lexer",
      [ Alcotest.test_case "basic" `Quick test_lex_basic;
        Alcotest.test_case "keyword canonicalisation" `Quick test_lex_canonical_keywords;
        Alcotest.test_case "floats" `Quick test_lex_floats;
        Alcotest.test_case "float vs member" `Quick test_lex_float_vs_member;
        Alcotest.test_case "hex" `Quick test_lex_hex;
        Alcotest.test_case "operators" `Quick test_lex_operators;
        Alcotest.test_case "comments" `Quick test_lex_comments;
        Alcotest.test_case "error location" `Quick test_lex_error_reporting;
        Alcotest.test_case "error messages" `Quick test_lex_error_messages;
        Alcotest.test_case "canonical source pinned" `Quick test_canonical_pinned;
        QCheck_alcotest.to_alcotest prop_punctuators_match_reference;
        QCheck_alcotest.to_alcotest prop_keywords_match_definition ] );
    ( "preprocessor",
      [ Alcotest.test_case "define" `Quick test_macro_define;
        Alcotest.test_case "nested" `Quick test_macro_nested;
        Alcotest.test_case "external defines" `Quick test_macro_external_defines;
        Alcotest.test_case "undef" `Quick test_macro_undef ] );
    ( "parser",
      [ Alcotest.test_case "matrix transpose" `Quick test_parse_mt;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "vector literal" `Quick test_parse_vector_literal;
        Alcotest.test_case "cast vs paren" `Quick test_parse_cast_vs_paren;
        Alcotest.test_case "for loop" `Quick test_parse_for_loop;
        Alcotest.test_case "compound assignment" `Quick test_parse_compound_assign;
        Alcotest.test_case "multi declarator" `Quick test_parse_multi_declarator;
        Alcotest.test_case "ternary" `Quick test_parse_ternary;
        Alcotest.test_case "error location" `Quick test_parse_error_location ] );
    ( "sema",
      [ Alcotest.test_case "usual conversions" `Quick test_sema_conversions;
        Alcotest.test_case "sizeof" `Quick test_sema_sizeof;
        Alcotest.test_case "vector components" `Quick test_sema_components;
        Alcotest.test_case "builtin results" `Quick test_sema_builtins ] ) ]
