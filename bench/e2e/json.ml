(* A minimal JSON reader, enough to check that the trace files the
   benchmark writes parse (no JSON library is a dependency of the repo). *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse (s : string) : t =
  let n = String.length s in
  let i = ref 0 in
  let fail m = raise (Error (Printf.sprintf "%s at byte %d" m !i)) in
  let rec skip () =
    if !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\r' || s.[!i] = '\t') then (
      incr i;
      skip ())
  in
  let expect c = if !i < n && s.[!i] = c then incr i else fail (Printf.sprintf "expected '%c'" c) in
  let literal w v =
    if !i + String.length w <= n && String.sub s !i (String.length w) = w then (
      i := !i + String.length w;
      v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string";
      let c = s.[!i] in
      incr i;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !i >= n then fail "bad escape";
          let e = s.[!i] in
          incr i;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' when !i + 4 <= n -> i := !i + 4
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !i in
    while !i < n && String.contains "+-0123456789.eE" s.[!i] do
      incr i
    done;
    match float_of_string_opt (String.sub s start (!i - start)) with
    | Some f when !i > start -> Num f
    | _ -> fail "bad number"
  in
  let rec value () =
    skip ();
    if !i >= n then fail "unexpected end";
    match s.[!i] with
    | '{' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = '}' then (incr i; Obj [])
        else
          let rec fields acc =
            skip ();
            let k = str () in
            skip ();
            expect ':';
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then (incr i; fields ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          fields []
    | '[' ->
        incr i;
        skip ();
        if !i < n && s.[!i] = ']' then (incr i; Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !i < n && s.[!i] = ',' then (incr i; items (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !i <> n then fail "trailing data";
  v

let member (k : string) (v : t) : t =
  match v with Obj kv -> Option.value (List.assoc_opt k kv) ~default:Null | _ -> Null
