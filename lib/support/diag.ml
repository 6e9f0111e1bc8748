(** Structured diagnostics.

    One record per message, with a severity, an optional source span
    ({!Loc.t}, propagated from the front-end through lowering into the IR),
    the component that produced it (a pass name, "lower", "verify", ...)
    and the text. Replaces the bare [failwith]/[invalid_arg] strings the
    compiler half used to abort with: drivers render a diagnostic either
    as the classic [file:line:col: error: message] line or as JSON for
    machine consumers (the bench/autotune layer). *)

type severity = Remark | Note | Warning | Error

type t = {
  severity : severity;
  loc : Loc.t option;  (** source span, when one is known *)
  file : string option;  (** source file, when the driver knows it *)
  pass : string option;  (** producing component ("lower", "cse", "grover", ...) *)
  code : string option;
      (** stable machine-readable finding code ("GRV-RACE-MUST", ...) so CI
          can grep for a class of diagnostic without parsing prose *)
  message : string;
}

exception Fatal of t
(** Raised for unrecoverable diagnostics (internal invariant violations,
    front-end errors re-wrapped by the driver). Carries the full record so
    the driver can still print [file:line:col: error: ...] and exit 1
    instead of dumping a backtrace. *)

let severity_name = function
  | Remark -> "remark"
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

let make ?loc ?file ?pass ?code severity message =
  { severity; loc; file; pass; code; message }

let makef ?loc ?file ?pass ?code severity fmt =
  Format.kasprintf (fun message -> make ?loc ?file ?pass ?code severity message) fmt

let remarkf ?loc ?file ?pass ?code fmt = makef ?loc ?file ?pass ?code Remark fmt
let warningf ?loc ?file ?pass ?code fmt = makef ?loc ?file ?pass ?code Warning fmt
let errorf ?loc ?file ?pass ?code fmt = makef ?loc ?file ?pass ?code Error fmt

let fatalf ?loc ?file ?pass ?code fmt =
  Format.kasprintf
    (fun message -> raise (Fatal (make ?loc ?file ?pass ?code Error message)))
    fmt

let is_error d = d.severity = Error

let of_loc_error ?file (loc : Loc.t) (message : string) : t =
  make ~loc ?file Error message

(* -- Rendering ------------------------------------------------------------ *)

(** [file:line:col: severity: [pass] message], degrading gracefully when the
    span or file is unknown. *)
let to_string ?file d =
  let file = match file with Some _ as f -> f | None -> d.file in
  let b = Buffer.create 80 in
  (match (file, d.loc) with
  | Some f, Some l when not (Loc.is_dummy l) ->
      Buffer.add_string b (Printf.sprintf "%s:%d:%d: " f l.Loc.line l.Loc.col)
  | Some f, _ -> Buffer.add_string b (f ^ ": ")
  | None, Some l when not (Loc.is_dummy l) ->
      Buffer.add_string b (Printf.sprintf "%d:%d: " l.Loc.line l.Loc.col)
  | None, _ -> ());
  Buffer.add_string b (severity_name d.severity);
  Buffer.add_string b ": ";
  (match d.pass with
  | Some p -> Buffer.add_string b (Printf.sprintf "[%s] " p)
  | None -> ());
  Buffer.add_string b d.message;
  (match d.code with
  | Some c -> Buffer.add_string b (Printf.sprintf " [%s]" c)
  | None -> ());
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** One JSON object per diagnostic (a JSON-lines stream when printed). *)
let to_json ?file d =
  let file = match file with Some _ as f -> f | None -> d.file in
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  let quote v = "\"" ^ json_escape v ^ "\"" in
  add "severity" (quote (severity_name d.severity));
  (match file with Some f -> add "file" (quote f) | None -> ());
  (match d.loc with
  | Some l when not (Loc.is_dummy l) ->
      add "line" (string_of_int l.Loc.line);
      add "col" (string_of_int l.Loc.col)
  | _ -> ());
  (match d.pass with Some p -> add "pass" (quote p) | None -> ());
  (match d.code with Some c -> add "code" (quote c) | None -> ());
  add "message" (quote d.message);
  "{"
  ^ String.concat ", "
      (List.rev_map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) !fields)
  ^ "}"

(* -- Environment variables ------------------------------------------------- *)

(* A bad value of an advisory environment variable warns (once per
   variable per process, on stderr) instead of falling back silently: a
   typo in it should not abort a run, only stop being invisible. *)
let env_warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let env_warn_mutex = Mutex.create ()

(** Warn about environment variable [var] as [$VAR: warning: ... [GRV-ENV]],
    the first time only. *)
let warn_env (var : string) fmt =
  Format.kasprintf
    (fun msg ->
      Mutex.protect env_warn_mutex (fun () ->
          if not (Hashtbl.mem env_warned var) then begin
            Hashtbl.replace env_warned var ();
            prerr_endline
              (to_string (warningf ~file:("$" ^ var) ~code:"GRV-ENV" "%s" msg))
          end))
    fmt
