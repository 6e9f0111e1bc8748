(* End-to-end benchmark of the Grover reproduction.

     dune exec ./bench/e2e/main.exe -- --workload fig10 --seed 1 --seconds 15 --trace 0

   Each workload runs in fresh child processes of this executable (this
   process never starts a domain): two that only set up, for set-up time
   samples, then one that measures. Every metric is printed as
   "<workload> <metric> <value> <unit>"; the last line is one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). The exit code is non-zero when any correctness gate
   failed. See README.md. *)

module W = Workloads

let usage =
  "main.exe [--workload fig10|stream|compile|verify|all] [--seed N] [--seconds S] [--trace 0|1] \
   [--smoke] [--out DIR]"

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable child : bool;
  mutable probe : bool;
  mutable out : string;
}

let die m =
  prerr_endline ("e2e: " ^ m ^ "\nusage: " ^ usage);
  exit 2

let parse_args () : args =
  let a =
    { workload = "all"; seed = 1; seconds = 15.0; trace = false; smoke = false; child = false;
      probe = false; out = "bench/e2e/out" }
  in
  let num f v = match f v with Some x -> x | None -> die ("bad number " ^ v) in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- num int_of_string_opt v; go r
    | "--seconds" :: v :: r -> a.seconds <- num float_of_string_opt v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> a.trace <- v = "1"; go r
    | "--out" :: v :: r -> a.out <- v; go r
    | "--smoke" :: r -> a.smoke <- true; a.trace <- true; go r
    | "--child" :: r -> a.child <- true; go r
    | "--probe" :: r -> a.probe <- true; go r
    | x :: _ -> die ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  if a.seed < 1 then die "--seed must be positive";
  if a.smoke then a.seconds <- 0.0;
  a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
  end

type child_result = {
  ready_s : float option;  (** spawn to end of set-up *)
  metrics : (string * float * string) list;
  notes : (string * float * string) list;
  attempted : int;
  failed : int;
  ok : bool;
}

(* Run one child to completion, reading its result lines from a pipe. *)
let spawn (a : args) (w : W.workload) ~(probe : bool) : child_result =
  let argv =
    [ Sys.executable_name; "--child"; "--workload"; w.W.name; "--seed"; string_of_int a.seed;
      "--seconds"; Printf.sprintf "%g" a.seconds; "--trace"; (if a.trace then "1" else "0");
      "--out"; a.out ]
    @ (if a.smoke then [ "--smoke" ] else [])
    @ if probe then [ "--probe" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = Span.now_ns () in
  let pid = Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let lines = In_channel.input_all (Unix.in_channel_of_descr rd) |> String.split_on_char '\n' in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  let r =
    ref { ready_s = None; metrics = []; notes = []; attempted = 0; failed = 0; ok = status = Unix.WEXITED 0 }
  in
  let got_result = ref false in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "ready"; ns; s ] ->
          r := { !r with ready_s = Some (Span.seconds_between t0 (Int64.of_string ns) +. float_of_string s) }
      | [ "metric"; k; v; u ] -> r := { !r with metrics = (k, float_of_string v, u) :: !r.metrics }
      | [ "note"; k; v; u ] -> r := { !r with notes = (k, float_of_string v, u) :: !r.notes }
      | [ "result"; at; f ] ->
          got_result := true;
          r := { !r with attempted = int_of_string at; failed = int_of_string f }
      | _ -> ())
    lines;
  if not !got_result then
    prerr_endline (Printf.sprintf "e2e: %s child exited without a result" w.W.name);
  { !r with ok = !r.ok && !got_result; metrics = List.rev !r.metrics; notes = List.rev !r.notes }

let setup_samples = 3

(* All processes of one workload: set-up probes, then the measuring child.
   The JSON metrics of the workload, and its attempted/failed/ok. *)
let run_workload (a : args) (w : W.workload) =
  let probes = if a.smoke || a.trace then [] else List.init (setup_samples - 1) (fun _ -> spawn a w ~probe:true) in
  let main = spawn a w ~probe:false in
  let runs = probes @ [ main ] in
  let setups = List.filter_map (fun r -> r.ready_s) runs in
  let setup = ("setup_s", Stats.median setups, "s") in
  let metrics = if a.trace then main.metrics else setup :: main.metrics in
  List.iter
    (fun (k, v, u) -> Printf.printf "%s %s %.6g %s\n" w.W.name k v u)
    (metrics @ main.notes @ if a.trace then [ setup ] else []);
  Printf.printf "%s setup_samples %s s\n%!" w.W.name
    (String.concat "," (List.map (Printf.sprintf "%.4f") setups));
  ( metrics,
    List.fold_left (fun n r -> n + r.attempted) 0 runs,
    List.fold_left (fun n r -> n + r.failed) 0 runs,
    List.for_all (fun r -> r.ok) runs && List.length setups = List.length runs )

let json_result ~correct ~attempted ~failed (metrics : (string * float * string) list) : string =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u)
          metrics))

let () =
  let a = parse_args () in
  let workloads =
    if a.workload = "all" then W.all
    else match W.find a.workload with Some w -> [ w ] | None -> die ("unknown workload " ^ a.workload)
  in
  mkdir_p a.out;
  if a.child then
    exit
      (Child.run
         {
           Child.workload = List.hd workloads;
           seed = a.seed;
           seconds = a.seconds;
           trace = a.trace;
           smoke = a.smoke;
           probe = a.probe;
           out = a.out;
         })
  else begin
    Printf.printf "host nproc %d count\nhost domain_cap %d count\nhost ocaml %s version\n%!"
      (Domain.recommended_domain_count ())
      (Grover_ocl.Runtime.effective_domain_cap ())
      Sys.ocaml_version;
    let results = List.map (fun w -> (w, run_workload a w)) workloads in
    let attempted = List.fold_left (fun n (_, (_, at, _, _)) -> n + at) 0 results in
    let failed = List.fold_left (fun n (_, (_, _, f, _)) -> n + f) 0 results in
    let ok = List.for_all (fun (_, (_, _, _, ok)) -> ok) results && failed = 0 in
    let metrics =
      match results with
      | [ (_, (m, _, _, _)) ] -> m
      | _ -> List.concat_map (fun (w, (m, _, _, _)) -> List.map (fun (k, v, u) -> (w.W.name ^ "." ^ k, v, u)) m) results
    in
    print_endline (json_result ~correct:ok ~attempted ~failed metrics);
    exit (if ok then 0 else 1)
  end
