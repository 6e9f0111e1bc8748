(** Tokens of the OpenCL C subset. *)

type t =
  | Int_lit of int
  | Float_lit of float
  | Ident of string
  | Kw of string  (** reserved word, canonicalised (e.g. "__kernel" -> "kernel") *)
  | Punct of string  (** operator or punctuation, e.g. "+", "<<=", "(" *)
  | Eof

let keywords =
  [ "kernel"; "global"; "local"; "constant"; "private";
    "if"; "else"; "for"; "while"; "do"; "return"; "break"; "continue";
    "void"; "bool"; "char"; "uchar"; "short"; "ushort"; "int"; "uint";
    "long"; "ulong"; "float"; "size_t";
    "const"; "restrict"; "volatile"; "unsigned"; "signed" ]

(* "__kernel" and "kernel" are interchangeable in OpenCL C; we canonicalise
   the double-underscore spellings at the lexer level. The table maps both
   spellings of every keyword to the canonical one; it is never written
   after this, so concurrent lexers may read it. *)
let keyword_table : (string, string) Hashtbl.t =
  let t = Hashtbl.create 64 in
  List.iter
    (fun k ->
      Hashtbl.replace t k k;
      Hashtbl.replace t ("__" ^ k) k)
    keywords;
  t

let canonical_keyword s = Hashtbl.find_opt keyword_table s

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Int_lit n -> Format.fprintf ppf "%d" n
  | Float_lit f -> Format.fprintf ppf "%g" f
  | Ident s -> Format.pp_print_string ppf s
  | Kw s -> Format.pp_print_string ppf s
  | Punct s -> Format.pp_print_string ppf s
  | Eof -> Format.pp_print_string ppf "<eof>"

let to_string t = Format.asprintf "%a" pp t
