(** Hand-written lexer with an integrated object-like macro preprocessor.

    The benchmark kernels only need [#define NAME replacement-tokens] (tile
    sizes, problem dimensions), comment stripping, and external [-D]-style
    definitions, so the full C preprocessor is intentionally out of scope. *)

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  macros : (string, Token.t list) Hashtbl.t;
}

let loc st = { Loc.line = st.line; col = st.pos - st.bol + 1 }

let at_end st = st.pos >= String.length st.src

(* The character [k] places ahead of [pos], or '\000' past the end. Every
   test below compares it with a printable character, so a NUL byte in
   the source and the end of the source read alike there; where they
   differ ([lex_raw], comments) [at_end] decides. *)
let char_at st k =
  let i = st.pos + k in
  if i < String.length st.src then String.unsafe_get st.src i else '\000'

let advance st =
  if st.pos < String.length st.src && String.unsafe_get st.src st.pos = '\n'
  then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let rec skip_line_comment st =
  if (not (at_end st)) && char_at st 0 <> '\n' then begin
    advance st;
    skip_line_comment st
  end

(* Past the closing [*/] of a block comment; false if the source ends
   first. *)
let rec close_block_comment st =
  if at_end st then false
  else if char_at st 0 = '*' && char_at st 1 = '/' then begin
    advance st;
    advance st;
    true
  end
  else begin
    advance st;
    close_block_comment st
  end

let rec skip_space_and_comments st =
  match char_at st 0 with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_space_and_comments st
  | '/' when char_at st 1 = '/' ->
      skip_line_comment st;
      skip_space_and_comments st
  | '/' when char_at st 1 = '*' ->
      let l = loc st in
      advance st;
      advance st;
      if not (close_block_comment st) then Loc.errorf l "unterminated comment";
      skip_space_and_comments st
  | _ -> ()

(* The punctuator at [pos], longest first, or "" if none starts there:
   one of
   [<<= >>= ... << >> <= >= == != && || += -= *= /= %= &= |= ^= ++ -- ->
    + - * / % < > = ! & | ^ ~ ( ) [ ] { } ; , . ? :]. *)
let punct st : string =
  let c1 = char_at st 1 in
  match char_at st 0 with
  | '<' ->
      if c1 = '<' then if char_at st 2 = '=' then "<<=" else "<<"
      else if c1 = '=' then "<="
      else "<"
  | '>' ->
      if c1 = '>' then if char_at st 2 = '=' then ">>=" else ">>"
      else if c1 = '=' then ">="
      else ">"
  | '.' -> if c1 = '.' && char_at st 2 = '.' then "..." else "."
  | '=' -> if c1 = '=' then "==" else "="
  | '!' -> if c1 = '=' then "!=" else "!"
  | '&' -> if c1 = '&' then "&&" else if c1 = '=' then "&=" else "&"
  | '|' -> if c1 = '|' then "||" else if c1 = '=' then "|=" else "|"
  | '+' -> if c1 = '=' then "+=" else if c1 = '+' then "++" else "+"
  | '-' ->
      if c1 = '=' then "-=" else if c1 = '-' then "--" else if c1 = '>' then "->" else "-"
  | '*' -> if c1 = '=' then "*=" else "*"
  | '/' -> if c1 = '=' then "/=" else "/"
  | '%' -> if c1 = '=' then "%=" else "%"
  | '^' -> if c1 = '=' then "^=" else "^"
  | '~' -> "~"
  | '(' -> "("
  | ')' -> ")"
  | '[' -> "["
  | ']' -> "]"
  | '{' -> "{"
  | '}' -> "}"
  | ';' -> ";"
  | ',' -> ","
  | '?' -> "?"
  | ':' -> ":"
  | _ -> ""

let rec skip_while st (p : char -> bool) =
  if p (char_at st 0) then begin
    advance st;
    skip_while st p
  end

(* Swallow C numeric suffixes: [uUlL] always, [fF] on a decimal. *)
let rec skip_suffix st ~hex =
  match char_at st 0 with
  | 'f' | 'F' when not hex ->
      advance st;
      skip_suffix st ~hex
  | 'u' | 'U' | 'l' | 'L' ->
      advance st;
      skip_suffix st ~hex
  | _ -> ()

let lex_number st =
  let l = loc st in
  let start = st.pos in
  let seen_dot = ref false and seen_exp = ref false in
  let hex = char_at st 0 = '0' && (char_at st 1 = 'x' || char_at st 1 = 'X') in
  if hex then begin
    advance st;
    advance st;
    skip_while st is_hex
  end
  else begin
    while
      match char_at st 0 with
      | c when is_digit c -> true
      | '.' when (not !seen_dot) && not !seen_exp ->
          (* Only a digit after '.' continues the number ('a[i].x' stays
             member access because we only call lex_number on a digit). *)
          seen_dot := true;
          true
      | ('e' | 'E') when not !seen_exp -> (
          match char_at st 1 with
          | c when is_digit c || c = '+' || c = '-' ->
              seen_exp := true;
              advance st;
              (* consume sign if present; the digit loop takes the rest *)
              (match char_at st 0 with '+' | '-' -> () | _ -> st.pos <- st.pos - 1);
              true
          | _ -> false)
      | _ -> false
    do
      advance st
    done
  end;
  let body = String.sub st.src start (st.pos - start) in
  let is_float_suffix =
    (not hex) && (match char_at st 0 with 'f' | 'F' -> true | _ -> false)
  in
  skip_suffix st ~hex;
  if !seen_dot || !seen_exp || is_float_suffix then
    match float_of_string_opt body with
    | Some f -> Token.Float_lit f
    | None -> Loc.errorf l "bad float literal %S" body
  else
    match int_of_string_opt body with
    | Some n -> Token.Int_lit n
    | None -> Loc.errorf l "bad integer literal %S" body

let lex_raw st : Token.t * Loc.t =
  skip_space_and_comments st;
  let l = loc st in
  if at_end st then (Token.Eof, l)
  else
    let c = char_at st 0 in
    if is_digit c then (lex_number st, l)
    else if is_ident_start c then begin
      let start = st.pos in
      skip_while st is_ident_char;
      let name = String.sub st.src start (st.pos - start) in
      let tok =
        match Token.canonical_keyword name with
        | Some kw -> Token.Kw kw
        | None -> Token.Ident name
      in
      (tok, l)
    end
    else if c = '#' then begin
      advance st;
      (Token.Punct "#", l)
    end
    else
      match punct st with
      | "" -> Loc.errorf l "unexpected character %C" c
      | p ->
          st.pos <- st.pos + String.length p;
          (Token.Punct p, l)

(* Read raw tokens until the end of the current line (for directives). *)
let rec raw_tokens_until_eol st acc =
  skip_space_and_comments_same_line st;
  if at_end st || char_at st 0 = '\n' then List.rev acc
  else
    let tok, _ = lex_raw st in
    raw_tokens_until_eol st (tok :: acc)

and skip_space_and_comments_same_line st =
  match char_at st 0 with
  | ' ' | '\t' | '\r' ->
      advance st;
      skip_space_and_comments_same_line st
  | '/' when char_at st 1 = '/' -> skip_line_comment st
  | '/' when char_at st 1 = '*' ->
      advance st;
      advance st;
      ignore (close_block_comment st : bool);
      skip_space_and_comments_same_line st
  | _ -> ()

let handle_directive st l =
  match lex_raw st with
  | Token.Ident "define", _ -> (
      match lex_raw st with
      | Token.Ident name, _ ->
          let replacement = raw_tokens_until_eol st [] in
          Hashtbl.replace st.macros name replacement
      | tok, dl -> Loc.errorf dl "#define expects a name, got %a" Token.pp tok)
  | Token.Ident "undef", _ -> (
      match lex_raw st with
      | Token.Ident name, _ ->
          ignore (raw_tokens_until_eol st []);
          Hashtbl.remove st.macros name
      | tok, dl -> Loc.errorf dl "#undef expects a name, got %a" Token.pp tok)
  | Token.Ident ("pragma" | "include"), _ ->
      (* Pragmas and includes are ignored: the subset is self-contained. *)
      ignore (raw_tokens_until_eol st [])
  | tok, _ -> Loc.errorf l "unsupported preprocessor directive %a" Token.pp tok

let max_expansion_depth = 64

let tokenize ?(defines = []) src : (Token.t * Loc.t) list =
  let st = { src; pos = 0; line = 1; bol = 0; macros = Hashtbl.create 16 } in
  List.iter
    (fun (name, text) ->
      let sub = { src = text; pos = 0; line = 1; bol = 0; macros = Hashtbl.create 0 } in
      let toks = raw_tokens_until_eol sub [] in
      Hashtbl.replace st.macros name toks)
    defines;
  let out = ref [] in
  (* Pending macro-expanded tokens carry the location of the use site. *)
  let pending : (Token.t * Loc.t * int) list ref = ref [] in
  let rec next () =
    match !pending with
    | (tok, l, depth) :: rest ->
        pending := rest;
        emit tok l depth
    | [] -> (
        let tok, l = lex_raw st in
        match tok with
        | Token.Punct "#" -> handle_directive st l
        | _ -> emit tok l 0)
  and emit tok l depth =
    match tok with
    | Token.Ident name when Hashtbl.mem st.macros name ->
        if depth >= max_expansion_depth then
          Loc.errorf l "macro expansion too deep at %s" name;
        let toks = Hashtbl.find st.macros name in
        pending :=
          List.map (fun t -> (t, l, depth + 1)) toks @ !pending
    | _ -> out := (tok, l) :: !out
  in
  let rec loop () =
    next ();
    match !out with
    | (Token.Eof, _) :: _ when !pending = [] -> ()
    | _ -> loop ()
  in
  loop ();
  List.rev !out

(* -- Canonical source form ------------------------------------------------ *)

(** Append one token, rendered exactly, to [b]. Floats use the hexadecimal
    [%h] form so two literals canonicalise identically iff they denote the
    same IEEE value; "%g" would conflate e.g. 0.1 and its nearest
    neighbours. *)
let add_token (b : Buffer.t) (t : Token.t) : unit =
  match t with
  | Token.Int_lit n ->
      Buffer.add_char b 'i';
      Buffer.add_string b (Int.to_string n)
  | Token.Float_lit f -> Printf.bprintf b "f%h" f
  | Token.Ident s ->
      Buffer.add_char b 'n';
      Buffer.add_string b s
  | Token.Kw s ->
      Buffer.add_char b 'k';
      Buffer.add_string b s
  | Token.Punct s ->
      Buffer.add_char b 'p';
      Buffer.add_string b s
  | Token.Eof -> Buffer.add_char b '$'

(** The content-hashable form of a kernel source: the macro-expanded token
    stream, one token per line. Comments, whitespace and macro spelling
    vanish — two sources that lex identically (under the same [defines])
    canonicalise to the same string, so they share a compile-cache entry.
    Sources the lexer rejects fall back to the raw text (prefixed so a
    canonical form can never collide with a raw one): the subsequent compile
    will report the error properly; the cache just needs a stable key. *)
let canonical_source ?(defines = []) (src : string) : string =
  match tokenize ~defines src with
  | toks ->
      let b = Buffer.create (String.length src) in
      List.iter
        (fun (t, _) ->
          add_token b t;
          Buffer.add_char b '\n')
        toks;
      Buffer.contents b
  | exception Loc.Error _ -> "!raw\n" ^ src
