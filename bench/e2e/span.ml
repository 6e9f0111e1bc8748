(* Spans, counters and samples recorded by the benchmark around its calls
   into the layers. Nothing inside lib/ is instrumented: every span wraps a
   public entry point from outside. When tracing is off each wrapper costs
   one branch. All recording happens on the main domain. *)

let now_ns () : int64 = Monotonic_clock.now ()
let seconds_between (t0 : int64) (t1 : int64) = Int64.to_float (Int64.sub t1 t0) *. 1e-9

type t = {
  id : int;
  name : string;  (** "<layer>.<call>" *)
  parent : int;  (** -1 for a root *)
  pass : int;
  run : int;  (** request id within the pass; -1 outside any request *)
  t0 : int64;
  mutable t1 : int64;
  mutable tag : string;  (** e.g. the execution path of a launch *)
}

let enabled = ref false
let pass = ref 0
let run = ref (-1)
let closed : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let layer (name : string) : string =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let wrap (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = !next_id;
        name;
        parent = (match !stack with p :: _ -> p.id | [] -> -1);
        pass = !pass;
        run = !run;
        t0 = now_ns ();
        t1 = 0L;
        tag = "";
      }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.t1 <- now_ns ();
      stack := List.tl !stack;
      closed := s :: !closed
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(** The span closed most recently, if tracing. *)
let last () : t option = match !closed with s :: _ when !enabled -> Some s | _ -> None

let count (name : string) (v : float) : unit =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let sample (name : string) (v : float) : unit =
  if !enabled then
    Hashtbl.replace samples name
      (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let duration (s : t) : float = seconds_between s.t0 s.t1

(** Self time of every span: its duration minus the part its direct
    children cover (children never overlap: one domain records them). *)
let self_times (spans : t list) : (t * float) list =
  let child_time : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0))
    spans

(* -- Chrome trace-event output ------------------------------------------------- *)

let chrome_json (spans : t list) : string =
  let b = Buffer.create (1 lsl 16) in
  let base =
    List.fold_left (fun acc s -> if Int64.compare s.t0 acc < 0 then s.t0 else acc)
      (match spans with s :: _ -> s.t0 | [] -> 0L)
      spans
  in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"pass\":%d,\"run\":%d,\"tag\":%S}}"
        s.name (layer s.name) (us s.t0) (us s.t1 -. us s.t0) s.id s.parent s.pass
        s.run s.tag)
    (List.sort (fun a b -> compare a.id b.id) spans);
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(** Parse a trace written by {!chrome_json} back and check that every span
    lies inside its parent. Returns the number of spans checked. *)
let validate_chrome (text : string) : (int, string) result =
  match Json.parse text with
  | exception Json.Error m -> Error ("trace does not parse: " ^ m)
  | doc -> (
      let num k o = match Json.member k o with Json.Num f -> f | _ -> raise Not_found in
      match Json.member "traceEvents" doc with
      | Json.Arr evs -> (
          try
            let tbl = Hashtbl.create 1024 in
            List.iter
              (fun e ->
                let a = Json.member "args" e in
                Hashtbl.replace tbl (int_of_float (num "id" a))
                  (num "ts" e, num "ts" e +. num "dur" e, int_of_float (num "parent" a)))
              evs;
            let eps = 1e-3 in
            let bad =
              Hashtbl.fold
                (fun id (t0, t1, p) acc ->
                  if p < 0 then acc
                  else
                    match Hashtbl.find_opt tbl p with
                    | Some (p0, p1, _) when t0 >= p0 -. eps && t1 <= p1 +. eps -> acc
                    | _ -> id :: acc)
                tbl []
            in
            match bad with
            | [] -> Ok (Hashtbl.length tbl)
            | id :: _ ->
                Error
                  (Printf.sprintf "%d span(s) not inside their parent (e.g. id %d)"
                     (List.length bad) id)
          with Not_found -> Error "trace event lacks a numeric field")
      | _ -> Error "trace has no traceEvents array")
