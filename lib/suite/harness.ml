(** The experiment harness: compile a benchmark in its two versions (with
    local memory, and with local memory disabled by Grover), execute both on
    the simulated platform, validate outputs against the host reference, and
    report the normalized performance — the paper's measurement loop
    (§V-B / §VI-B). *)

open Grover_ir
open Grover_ocl
module P = Grover_memsim.Platform
module Sim = Grover_memsim.Simulate
module Cache = Grover_cache.Compile_cache

type version = With_lm | Without_lm

(** One version of a benchmark on one platform. The execution (output
    check, totals, path) is shared by every platform it was simulated on. *)
type run = {
  version : version;
  seconds : float;  (** simulated seconds on the platform *)
  valid : (unit, string) result;
  totals : Trace.totals;
  sim : Sim.result;
  path : string;
      (** execution path taken: "wg-vec" or "fiber" *)
}

type comparison = {
  case_id : string;
  platform : string;
  with_lm : run;
  without_lm : run;
  grover : Grover_core.Grover.outcome;
  normalized : float;
      (** perf(without) / perf(with) = t_with / t_without; > 1 = gain *)
}

exception Harness_error of string

(** [case]'s kernel in version [v], built the way a compile-cache miss
    builds it. The function is the caller's own (no cache shares it). *)
let compile_version (case : Kit.case) (v : version) :
    Ssa.func * Grover_core.Grover.outcome option =
  let variant =
    match v with
    | With_lm -> Cache.With_lm
    | Without_lm -> Cache.Without_lm case.Kit.remove
  in
  let art =
    Cache.build_artifact
      (Cache.request ~defines:case.Kit.defines ~variant case.Kit.source)
  in
  match
    List.find_opt
      (fun ka -> ka.Cache.ka_name = case.Kit.kernel)
      art.Cache.art_kernels
  with
  | None ->
      raise
        (Harness_error
           (Printf.sprintf "%s: kernel %s missing" case.Kit.id case.Kit.kernel))
  | Some { Cache.ka_outcome = Some o; _ }
    when o.Grover_core.Grover.transformed = [] ->
      raise
        (Harness_error
           (Printf.sprintf "%s: Grover transformed nothing (%s)" case.Kit.id
              (String.concat "; "
                 (List.map
                    (fun (n, r) -> n ^ ": " ^ r)
                    o.Grover_core.Grover.rejected))))
  | Some ka -> (ka.Cache.ka_fn, ka.Cache.ka_outcome)

(* Kernels that already use explicit vector types defeat the CPU runtimes'
   implicit work-item vectorisation (the AMD-MT/AMD-MM situation the paper
   discusses in §VI-C). *)
let uses_vector_types (fn : Ssa.func) : bool =
  List.exists
    (fun (a : Ssa.arg) ->
      match a.Ssa.a_ty with
      | Ssa.Ptr (_, Ssa.Vec _) | Ssa.Vec _ -> true
      | _ -> false)
    fn.Ssa.f_args
  || Ssa.fold_instrs
       (fun acc i ->
         acc
         ||
         match i.Ssa.op with
         | Ssa.Vecbuild _ | Ssa.Extract _ | Ssa.Insert _ -> true
         | _ -> false)
       false fn

(** Execute [fn] once on [case]'s workload and stream every work-group to
    one simulator per platform. Returns the launch totals, the simulated
    results in [platforms] order, the output check and the execution path
    taken. With no platform nothing is simulated. *)
let execute ?vectorized_override (case : Kit.case) (fn : Ssa.func) ~(scale : int)
    ~(platforms : P.t list) : Trace.totals * Sim.result list * (unit, string) result * string =
  let w = case.Kit.mk ~scale in
  let compiled = Interp.prepare fn in
  let vectorized =
    match vectorized_override with
    | Some v -> v
    | None -> uses_vector_types fn
  in
  let sims = List.map (Sim.create ~vectorized) platforms in
  let on_group =
    match sims with
    | [] -> None
    | _ -> Some (fun g -> List.iter (fun s -> Sim.consume s g) sims)
  in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let totals = Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ?on_group () in
  let path = Runtime.path_name (Runtime.plan compiled ~cfg ()) in
  (totals, List.map Sim.result sims, w.Kit.check (), path)

(** Wall-clock timing of one kernel on a case's workload on the host (no
    platform simulation), with the execution metadata needed to audit a
    tuning decision. Used by [groverc autotune] and
    [groverc promote --measure]. *)
type wallclock_run = {
  wc_seconds : float;
  wc_items : int;  (** work-items executed *)
  wc_path : string;  (** "wg-vec" or "fiber" *)
  wc_domains : int;  (** parallel domains actually used (incl. the caller) *)
  wc_lane_width : int;  (** work-items per batch of the plan (1 on fibers) *)
}

let wallclock ?(domains = 1) ?(reps = 1) (case : Kit.case) (fn : Ssa.func)
    ~(scale : int) : wallclock_run =
  if reps < 1 then invalid_arg "wallclock: reps must be >= 1";
  let compiled = Interp.prepare fn in
  let w = case.Kit.mk ~scale in
  let gx, gy, gz = w.Kit.global in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let p = Runtime.plan compiled ~cfg ~domains () in
  (* Min-of-N: scheduler noise and warm-up only ever make a run slower, so
     the minimum is the honest estimate of the kernel's cost (the tinygrad
     timing idiom) — what the autotune DB should record. *)
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let (_ : Trace.totals) =
      Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~domains ()
    in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  (match w.Kit.check () with
  | Ok () -> ()
  | Error m ->
      raise
        (Harness_error
           (Printf.sprintf "%s (%s, %d domain%s): wrong output: %s" case.Kit.id
              (Runtime.path_name p) p.Runtime.domains_used
              (if p.Runtime.domains_used = 1 then "" else "s")
              m)));
  {
    wc_seconds = !best;
    wc_items = gx * gy * gz;
    wc_path = Runtime.path_name p;
    wc_domains = p.Runtime.domains_used;
    wc_lane_width = Runtime.batch_width cfg p.Runtime.path;
  }

(* -- Multi-launch (command queue) submission ---------------------------------- *)

let version_name = function With_lm -> "with_lm" | Without_lm -> "without_lm"

(** One prepared launch of a suite case: compiled kernel, geometry and a
    deterministic workload ([Kit.mk] seeds its PRNG identically per
    (case, scale), so two prepared sets are bit-identical inputs). *)
type prepared_launch = {
  pl_label : string;
  pl_compiled : Interp.compiled;
  pl_cfg : Runtime.launch_config;
  pl_w : Kit.workload;
}

(** Prepare [jobs] independent workloads for every (case, version) pair:
    each job gets its own buffers, but all jobs of a pair share one
    compiled kernel — the shape of a queue fed by many clients. *)
let prepare_launches ~(jobs : int) ~(scale : int)
    (cases : (Kit.case * version) list) : prepared_launch list =
  List.concat_map
    (fun ((case : Kit.case), v) ->
      let fn, _ = compile_version case v in
      let compiled = Interp.prepare fn in
      List.init jobs (fun j ->
          let w = case.Kit.mk ~scale in
          {
            pl_label =
              Printf.sprintf "%s/%s#%d" case.Kit.id (version_name v) j;
            pl_compiled = compiled;
            pl_cfg =
              { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 };
            pl_w = w;
          }))
    cases

(** Submit every prepared launch to one out-of-order queue and drain it.
    Returns wall-clock seconds and each launch's labelled completion
    event (carrying totals and the queued/submitted/completed profiling
    timestamps) in submission order. *)
let run_queued_events ?(domains = 0) (pls : prepared_launch list) :
    float * (string * Event.t) list =
  let q = Queue.create ~domains () in
  let t0 = Unix.gettimeofday () in
  let evs =
    List.map
      (fun pl ->
        ( pl.pl_label,
          Queue.enqueue_nd_range q pl.pl_compiled ~cfg:pl.pl_cfg
            ~args:pl.pl_w.Kit.args () ))
      pls
  in
  Queue.finish q;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, evs)

(** [run_queued_events] reduced to per-launch totals. *)
let run_queued ?(domains = 0) (pls : prepared_launch list) :
    float * Trace.totals list =
  let dt, evs = run_queued_events ~domains pls in
  (dt, List.map (fun (_, ev) -> Event.totals ev) evs)

(** The same launch set, one serial [Runtime.launch] at a time — the
    queue's baseline and differential oracle. *)
let run_sequential (pls : prepared_launch list) : float * Trace.totals list =
  let t0 = Unix.gettimeofday () in
  let tots =
    List.map
      (fun pl ->
        Runtime.launch pl.pl_compiled ~cfg:pl.pl_cfg ~args:pl.pl_w.Kit.args
          ~mem:pl.pl_w.Kit.mem ())
      pls
  in
  (Unix.gettimeofday () -. t0, tots)

(** Validate every workload's output against its host reference. *)
let validate_launches (pls : prepared_launch list) : unit =
  List.iter
    (fun pl ->
      match pl.pl_w.Kit.check () with
      | Ok () -> ()
      | Error m ->
          raise
            (Harness_error
               (Printf.sprintf "%s: wrong output: %s" pl.pl_label m)))
    pls

(** Total work-items across a prepared set. *)
let launch_items (pls : prepared_launch list) : int =
  List.fold_left
    (fun acc pl ->
      let x, y, z = pl.pl_cfg.Runtime.global in
      acc + (x * y * z))
    0 pls

(** One sanitized execution of one version of a benchmark: the kernel runs
    under the dynamic race/OOB sanitizer with the case's real work-group
    geometry. A correct kernel must report no findings *and* still produce
    the reference output (the sanitizer only observes). *)
type sanitize_run = {
  sz_findings : Sanitize.finding list;
  sz_check : (unit, string) result;  (** output validation of the sanitized run *)
  sz_local : int * int * int;  (** work-group size the case launches with *)
  sz_fn : Ssa.func;  (** the normalised kernel, for the static passes *)
}

let sanitize_run ?(scale = 4) (case : Kit.case) (v : version) : sanitize_run =
  let fn, _ = compile_version case v in
  let compiled = Interp.prepare fn in
  let w = case.Kit.mk ~scale in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let _totals, findings =
    Runtime.run_sanitized compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ()
  in
  {
    sz_findings = findings;
    sz_check = w.Kit.check ();
    sz_local = w.Kit.local;
    sz_fn = fn;
  }

(* -- Promotion (the reverse transform) ---------------------------------------- *)

(** Deep-copy a function through marshalling, bumping the global id
    counters past every id in the copy so later synthesised instructions
    cannot collide. Promotion mutates IR in place; callers usually want to
    keep the unpromoted form too. *)
let clone_fn (fn : Ssa.func) : Ssa.func =
  let s = Marshal.to_string (fn : Ssa.func) [] in
  let fn' : Ssa.func = Marshal.from_string s 0 in
  let maxi = Ssa.fold_instrs (fun a (i : Ssa.instr) -> max a i.Ssa.iid) 0 fn' in
  let maxb =
    List.fold_left (fun a (b : Ssa.block) -> max a b.Ssa.bid) 0 fn'.Ssa.blocks
  in
  Ssa.reserve_ids (max maxi maxb);
  fn'

(** A validated promotion of one case's [Without_lm] form back to a
    `__local`-tiled kernel. *)
type promoted = {
  pm_fn : Ssa.func;  (** the promoted kernel (the input is left untouched) *)
  pm_outcome : Grover_promote.Promote.outcome;
  pm_race_free : bool;  (** every local buffer certified [Race_free] *)
  pm_findings : Sanitize.finding list;  (** sanitizer findings (must be []) *)
  pm_check : (unit, string) result;  (** output vs the host reference *)
  pm_totals : Trace.totals;
  pm_local : int * int * int;
}

(** Run the bidirectional loop's insertion direction on [case]: take the
    Grover-removed ([Without_lm]) kernel, promote its reused global loads
    back into `__local` tiles under the case's real work-group geometry,
    then validate the result end to end — static race certification, a
    sanitized execution, and output validation against the host
    reference. *)
let promote_run ?(scale = 4) (case : Kit.case) : promoted =
  let fn0, _ = compile_version case Without_lm in
  let fn = clone_fn fn0 in
  let w = case.Kit.mk ~scale in
  let outcome, race_free =
    Grover_analysis.Config.with_local (Some w.Kit.local) (fun () ->
        let o = Grover_promote.Promote.run fn in
        let reports, _box, _assumed = Grover_analysis.Race.analyse fn in
        let rf =
          List.for_all
            (fun (r : Grover_analysis.Race.report) ->
              r.Grover_analysis.Race.r_verdict = Grover_analysis.Race.Race_free)
            reports
        in
        (o, rf))
  in
  let compiled = Interp.prepare fn in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let totals, findings =
    Runtime.run_sanitized compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ()
  in
  {
    pm_fn = fn;
    pm_outcome = outcome;
    pm_race_free = race_free;
    pm_findings = findings;
    pm_check = w.Kit.check ();
    pm_totals = totals;
    pm_local = w.Kit.local;
  }

(** The full experiment for one benchmark on every platform: each version
    is compiled, executed and validated once, and simulated on all of
    [platforms]. One comparison per platform, in [platforms] order. *)
let compare_all ?vectorized_override (case : Kit.case) ~(platforms : P.t list)
    ~(scale : int) : comparison list =
  let runs v =
    let fn, outcome = compile_version case v in
    let totals, sims, valid, path =
      execute ?vectorized_override case fn ~scale ~platforms
    in
    ( List.map
        (fun (sim : Sim.result) ->
          { version = v; seconds = sim.Sim.seconds; valid; totals; sim; path })
        sims,
      outcome )
  in
  let with_lm, _ = runs With_lm in
  let without_lm, outcome = runs Without_lm in
  let grover =
    match outcome with
    | Some o -> o
    | None -> raise (Harness_error "missing Grover outcome")
  in
  List.map2
    (fun with_lm without_lm ->
      {
        case_id = case.Kit.id;
        platform = with_lm.sim.Sim.r_platform;
        with_lm;
        without_lm;
        grover;
        normalized = with_lm.seconds /. without_lm.seconds;
      })
    with_lm without_lm

(** The full experiment for one (benchmark, platform) test case. *)
let compare ?vectorized_override (case : Kit.case) ~(platform : P.t)
    ~(scale : int) : comparison =
  List.hd (compare_all ?vectorized_override case ~platforms:[ platform ] ~scale)

(** Classification with the paper's 5% similarity threshold (Table IV). *)
type verdict = Gain | Loss | Similar

let classify ?(threshold = 0.05) (np : float) : verdict =
  if np > 1.0 +. threshold then Gain
  else if np < 1.0 -. threshold then Loss
  else Similar

let verdict_name = function Gain -> "gain" | Loss -> "loss" | Similar -> "similar"
