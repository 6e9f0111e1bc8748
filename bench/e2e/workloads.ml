(* The four workloads. Each is a closed loop driven by one client in one
   process: [setup] builds its inputs from the seed and returns the
   per-pass hooks. Every call into a layer is wrapped in a {!Span} named
   after that layer, so a traced pass attributes its time without any
   instrumentation inside lib/. *)

open Grover_ir
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module Suite = Grover_suite.Suite
module Interp = Grover_ocl.Interp
module Runtime = Grover_ocl.Runtime
module Memory = Grover_ocl.Memory
module Trace = Grover_ocl.Trace
module Event = Grover_ocl.Event
module Cq = Grover_ocl.Queue
module P = Grover_memsim.Platform
module Sim = Grover_memsim.Simulate
module Predict = Grover_memsim.Predict
module Cache = Grover_cache.Compile_cache
module Pass = Grover_passes.Pass

type ctx = {
  seed : int;
  scale : int;  (** problem-size divisor: 1 = the paper's sizes *)
  requests : int;  (** compile requests per pass *)
  out : string;  (** directory for traces and the compile workload's disk tier *)
  mutable attempted : int;
  mutable failed : int;
  mutable slots_ms : (int * float) list;  (** (request id, ms) of each operation this pass *)
}

type hooks = {
  before : unit -> unit;  (** untimed reset before each pass *)
  pass : unit -> unit;
  finish : unit -> unit;
}

type workload = {
  name : string;
  on_pool : bool;  (** also computes on the runtime's domain pool *)
  setup : ctx -> hooks;
}

let fail (ctx : ctx) fmt =
  Printf.ksprintf
    (fun m ->
      ctx.failed <- ctx.failed + 1;
      if ctx.failed <= 20 then prerr_endline ("e2e: FAILED " ^ m))
    fmt

(** One operation of a workload: counted, timed, and failed on an [Error]
    or any exception (validation, [Launch_error], [Kernel_trap], ...). *)
let op (ctx : ctx) ~(run : int) (label : string) (f : unit -> ('a, string) result) :
    'a option =
  Speed.tick ();
  Span.run := run;
  ctx.attempted <- ctx.attempted + 1;
  let t0 = Speed.clock () in
  let r =
    match Span.wrap "op" f with
    | Ok v -> Some v
    | Error m ->
        fail ctx "%s: %s" label m;
        None
    | exception e ->
        fail ctx "%s: %s" label (Printexc.to_string e);
        None
  in
  Speed.tick ();
  ctx.slots_ms <- (run, (Speed.clock () -. t0) *. 1e3) :: ctx.slots_ms;
  Span.run := -1;
  r

(* -- Seeded inputs ------------------------------------------------------------ *)

let shuffle (ctx : ctx) ~(salt : int) (a : 'a array) : 'a array =
  let a = Array.copy a in
  let next = Kit.prng ((ctx.seed * 7919) + salt) in
  for i = Array.length a - 1 downto 1 do
    let j = next () mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(** Refill every float buffer argument the kernel only reads with values
    drawn from the seed. Integer inputs (the AMD-SS text and pattern) keep
    their suite values. Memory traces depend on addresses, not on float
    values, so simulated results do not change with the seed. *)
let refill (ctx : ctx) ~(case_idx : int) ~(copy : int) (fn : Ssa.func) (w : Kit.workload) : unit =
  Span.wrap "bench.refill" (fun () ->
      let modes = Cq.compute_arg_modes fn in
      List.iteri
        (fun k arg ->
          match arg with
          | Runtime.Abuf b
            when k < Array.length modes && modes.(k) = (true, false) && Ssa.ty_is_float b.Memory.elem ->
              let gen = Kit.float_gen ((((ctx.seed * 1009) + case_idx) * 31 + k) * 8 + copy + 1) in
              Memory.fill_floats b (fun _ -> gen ())
          | _ -> ())
        w.Kit.args)

let cases = Array.of_list Suite.all

(** Lower, normalise and (for the without_lm version) run Grover: the
    calls [Harness.compile_version] makes, one span per layer. *)
let compile_version (case : Kit.case) (v : H.version) : Ssa.func =
  let fns =
    Span.wrap "clc.compile" (fun () -> Lower.compile ~defines:case.Kit.defines case.Kit.source)
  in
  let fn =
    match List.find_opt (fun f -> f.Ssa.f_name = case.Kit.kernel) fns with
    | Some f -> f
    | None -> failwith (case.Kit.id ^ ": kernel missing")
  in
  Span.wrap "passes.normalize" (fun () -> Grover_passes.Pipeline.normalize fn);
  if !Span.enabled then Span.count "passes.instrs_after" (float_of_int (Pass.instr_count fn));
  (match v with
  | H.With_lm -> ()
  | H.Without_lm ->
      let o = Span.wrap "core.grover" (fun () -> Grover_core.Grover.run ?only:case.Kit.remove fn) in
      Span.count "core.transformed" (float_of_int (List.length o.Grover_core.Grover.transformed));
      if o.Grover_core.Grover.transformed = [] then failwith (case.Kit.id ^ ": Grover transformed nothing"));
  fn

let mk (ctx : ctx) (case : Kit.case) : Kit.workload =
  Span.wrap "suite.mk" (fun () -> case.Kit.mk ~scale:ctx.scale)

let prepare (fn : Ssa.func) : Interp.compiled = Span.wrap "interp.prepare" (fun () -> Interp.prepare fn)
let check (w : Kit.workload) = Span.wrap "suite.check" w.Kit.check
let items (w : Kit.workload) = let x, y, z = w.Kit.global in x * y * z

(* -- fig10: the paper's Fig. 10 experiment ---------------------------------- *)

type np_row = { case_id : string; platform : string; np : float }

(* [Harness.compare]'s order, whatever the seed: ordering the comparisons
   differently moved peak RSS by up to 15% between seeds, as the collector
   met a different mix of garbage. *)
let fig10_order : (P.t * int) list =
  List.concat_map (fun p -> List.init (Array.length cases) (fun i -> (p, i))) P.cache_only

(** One Fig. 10 pass: every (platform, case) comparison, each making the
    calls [Harness.compare] makes in its order. *)
let fig10_pass (ctx : ctx) : np_row list =
  let run_version ~run (platform : P.t) case_idx v =
    let case = cases.(case_idx) in
    op ctx ~run
      (Printf.sprintf "%s/%s/%s" case.Kit.id platform.P.name (H.version_name v))
      (fun () ->
        let fn = compile_version case v in
        let w = mk ctx case in
        refill ctx ~case_idx ~copy:0 fn w;
        let compiled = prepare fn in
        let vectorized = Span.wrap "suite.vector_types" (fun () -> H.uses_vector_types fn) in
        let sim = Span.wrap "memsim.create" (fun () -> Sim.create ~vectorized platform) in
        let groups = ref 0 and events = ref 0 in
        let on_group (g : Trace.wg_stats) =
          incr groups;
          events := !events + g.Trace.n_events;
          Span.wrap "memsim.consume" (fun () -> Sim.consume sim g)
        in
        let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = platform.P.cores } in
        let (_ : Trace.totals) =
          Span.wrap "runtime.launch" (fun () ->
              Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~on_group ~domains:1 ())
        in
        let launch = Span.last () in
        let r = Span.wrap "memsim.result" (fun () -> Sim.result sim) in
        let plan = Span.wrap "runtime.plan" (fun () -> Runtime.plan compiled ~cfg ~domains:1 ()) in
        (* The launch's path and work-items, for the per-path rates. *)
        let path = Runtime.path_name plan in
        Option.iter (fun (s : Span.t) -> s.Span.tag <- path) launch;
        Span.count ("runtime.items." ^ path) (float_of_int (items w));
        Span.count "memsim.groups" (float_of_int !groups);
        Span.count "memsim.events" (float_of_int !events);
        Result.map (fun () -> r.Sim.seconds) (check w))
  in
  List.concat
    (List.mapi
       (fun k ((platform : P.t), case_idx) ->
         let t_with = run_version ~run:(2 * k) platform case_idx H.With_lm in
         let t_without = run_version ~run:((2 * k) + 1) platform case_idx H.Without_lm in
         match (t_with, t_without) with
         | Some a, Some b ->
             [ { case_id = cases.(case_idx).Kit.id; platform = platform.P.name; np = a /. b } ]
         | _ -> [])
       fig10_order)

(* The checked-in `bench/main.exe table4` output: per-row np and verdict,
   and the Table IV counts per platform. *)
type reference = {
  rows : ((string * string) * (string * string)) list;  (** (case, platform) -> (np "%.2f", verdict) *)
  counts : (string * int list) list;  (** verdict -> [SNB; Nehalem; MIC] *)
}

let parse_reference (text : string) : reference =
  let rows = ref [] and counts = ref [] in
  List.iter
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | [ ("Gain" | "Loss" | "Similar") as v; a; b; c; _; _ ] ->
          counts := (String.lowercase_ascii v, List.map int_of_string [ a; b; c ]) :: !counts
      | case :: plat :: _ :: _ :: np :: (("gain" | "loss" | "similar") as v) :: _ ->
          rows := ((case, plat), (np, v)) :: !rows
      | _ -> ())
    (String.split_on_char '\n' text);
  { rows = List.rev !rows; counts = List.rev !counts }

let check_reference (ctx : ctx) (ref_ : reference) (rows : np_row list) : unit =
  List.iter
    (fun ((case, plat), (np, verdict)) ->
      ctx.attempted <- ctx.attempted + 1;
      match List.find_opt (fun r -> r.case_id = case && r.platform = plat) rows with
      | None -> fail ctx "fig10 %s/%s: no np (a run failed)" case plat
      | Some r ->
          let got = Printf.sprintf "%.2f" r.np and v = H.verdict_name (H.classify r.np) in
          if got <> np || v <> verdict then
            fail ctx "fig10 %s/%s: np %s (%s), reference %s (%s)" case plat got v np verdict)
    ref_.rows;
  ctx.attempted <- ctx.attempted + 1;
  let counts =
    List.map
      (fun v ->
        ( H.verdict_name v,
          List.map
            (fun p ->
              List.length (List.filter (fun r -> r.platform = p && H.classify r.np = v) rows))
            [ "SNB"; "Nehalem"; "MIC" ] ))
      [ H.Gain; H.Loss; H.Similar ]
  in
  if counts <> ref_.counts then fail ctx "fig10: Table IV counts differ from the reference"

let reference_for (ctx : ctx) : reference =
  match ctx.scale with
  | 1 -> parse_reference Reference_data.scale1
  | 8 -> parse_reference Reference_data.scale8
  | s -> failwith (Printf.sprintf "no fig10 reference at scale %d" s)

let fig10 =
  {
    name = "fig10";
    on_pool = false;
    setup =
      (fun ctx ->
        let ref_ = reference_for ctx in
        {
          before = ignore;
          pass = (fun () -> check_reference ctx ref_ (fig10_pass ctx));
          finish = ignore;
        });
  }

(* -- stream: prepared launches through one out-of-order queue ------------------ *)

let copies = 4

type launch = {
  l_label : string;
  l_compiled : Interp.compiled;
  l_cfg : Runtime.launch_config;
  l_w : Kit.workload;
  l_outputs : Memory.buffer list;  (** write-only arguments, cleared before each pass *)
  l_path : string;
}

let stream =
  {
    name = "stream";
    on_pool = true;
    setup =
      (fun ctx ->
        let launches =
          Array.to_list cases
          |> List.mapi (fun case_idx case -> (case_idx, case))
          |> List.concat_map (fun (case_idx, (case : Kit.case)) ->
                 List.concat_map
                   (fun v ->
                     let fn, _ = H.compile_version case v in
                     let compiled = Interp.prepare fn in
                     let modes = Cq.compute_arg_modes fn in
                     List.init copies (fun copy ->
                         let w = case.Kit.mk ~scale:ctx.scale in
                         refill ctx ~case_idx ~copy fn w;
                         let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
                         {
                           l_label = Printf.sprintf "%s/%s#%d" case.Kit.id (H.version_name v) copy;
                           l_compiled = compiled;
                           l_cfg = cfg;
                           l_w = w;
                           l_outputs =
                             List.concat
                               (List.mapi
                                  (fun k a ->
                                    match a with
                                    | Runtime.Abuf b when k < Array.length modes && modes.(k) = (false, true) -> [ b ]
                                    | _ -> [])
                                  w.Kit.args);
                           l_path = Runtime.path_name (Runtime.plan compiled ~cfg ~domains:0 ());
                         }))
                   [ H.With_lm; H.Without_lm ])
        in
        let order = shuffle ctx ~salt:20 (Array.of_list launches) in
        {
          before =
            (fun () -> Array.iter (fun l -> List.iter Memory.clear l.l_outputs) order);
          pass =
            (fun () ->
              let q = Cq.create ~domains:0 () in
              let evs =
                Array.mapi
                  (fun i l ->
                    Span.run := i;
                    match
                      Span.wrap "queue.enqueue" (fun () ->
                          Cq.enqueue_nd_range q l.l_compiled ~cfg:l.l_cfg ~args:l.l_w.Kit.args ())
                    with
                    | ev -> Ok ev
                    | exception e -> Error (Printexc.to_string e))
                  order
              in
              Span.run := -1;
              (* A failed launch poisons only its own event; it is counted below. *)
              (try Span.wrap "queue.finish" (fun () -> Cq.finish q) with _ -> ());
              Array.iteri
                (fun i l ->
                  Speed.tick ();
                  ctx.attempted <- ctx.attempted + 1;
                  Span.run := i;
                  match evs.(i) with
                  | Error m -> fail ctx "%s: %s" l.l_label m
                  | Ok ev -> (
                      let queued, submitted, completed = Event.profile ev in
                      Span.sample "queue.launch_ms" ((completed -. queued) *. 1e3);
                      Span.sample "queue.dep_wait_ms" ((submitted -. queued) *. 1e3);
                      Span.count ("runtime.items." ^ l.l_path) (float_of_int (items l.l_w));
                      match Event.error ev with
                      | Some e -> fail ctx "%s: %s" l.l_label (Printexc.to_string e)
                      | None -> (
                          match check l.l_w with
                          | Ok () -> ()
                          | Error m -> fail ctx "%s: %s" l.l_label m)))
                order;
              Span.run := -1);
          finish = ignore;
        });
  }

(* -- compile: seeded requests against a fresh two-tier cache ------------------- *)

let salts = 64

(* Zipf(s = 1) over 1..salts: cumulative weights 1/k. *)
let zipf_cdf =
  let w = Array.init salts (fun k -> 1.0 /. float_of_int (k + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw_salt (next : unit -> int) : int =
  let u = float_of_int (next () mod 1_000_000) /. 1e6 in
  let rec find k = if k = salts - 1 || u < zipf_cdf.(k) then k + 1 else find (k + 1) in
  find 0

let remove_dir (dir : string) : unit =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let compile =
  {
    name = "compile";
    on_pool = false;
    setup =
      (fun ctx ->
        let dir = Filename.concat ctx.out (Printf.sprintf "cache.%d" (Unix.getpid ())) in
        let next = Kit.prng ((ctx.seed * 7919) + 30) in
        (* Every block of 24 requests covers each (case, variant) pair once,
           in a seeded order, so the compile work of a pass does not depend
           on the seed. A salt is an unused define: a new key for the same
           compile work. *)
        let pairs = Array.init (2 * Array.length cases) Fun.id in
        let block = ref [||] in
        let requests =
          Array.init ctx.requests (fun i ->
              let r = i mod Array.length pairs in
              if r = 0 then block := shuffle ctx ~salt:(31 + i) pairs;
              let case = cases.(!block.(r) / 2) in
              let variant = if !block.(r) mod 2 = 0 then Cache.With_lm else Cache.Without_lm case.Kit.remove in
              let salt = draw_salt next in
              ( case,
                Cache.request
                  ~defines:(case.Kit.defines @ [ ("BENCH_SALT", string_of_int salt) ])
                  ~variant case.Kit.source ))
        in
        let cache = ref None in
        let reset () =
          Option.iter Cache.clear !cache;
          remove_dir dir;
          cache := Some (Cache.create ~dir ())
        in
        {
          before = reset;
          pass =
            (fun () ->
              let t = Option.get !cache in
              Array.iteri
                (fun i ((case : Kit.case), rq) ->
                  ignore
                    (op ctx ~run:i case.Kit.id (fun () ->
                         let st = Cache.stats t in
                         let mem0 = st.Cache.st_mem_hits and disk0 = st.Cache.st_disk_hits in
                         let t0 = Span.now_ns () in
                         let pr = Span.wrap "cache.compile" (fun () -> Cache.compile t rq) in
                         let dt = Span.seconds_between t0 (Span.now_ns ()) in
                         (if st.Cache.st_mem_hits > mem0 then (
                            Span.count "cache.mem_hits" 1.0;
                            Span.sample "cache.mem_hit_us" (dt *. 1e6))
                          else if st.Cache.st_disk_hits > disk0 then (
                            Span.count "cache.disk_hits" 1.0;
                            Span.sample "cache.disk_hit_ms" (dt *. 1e3))
                          else (
                            Span.count "cache.misses" 1.0;
                            Span.sample "cache.miss_ms" (dt *. 1e3)));
                         match Cache.find_kernel pr ~name:case.Kit.kernel with
                         | Some _ -> Ok ()
                         | None -> Error "compiled kernel missing")))
                requests);
          finish =
            (fun () ->
              Option.iter Cache.clear !cache;
              remove_dir dir);
        });
  }

(* -- verify: sanitizer, static analysis and promote-lm ------------------------- *)

(* The with_lm / without_lm winner by trace-driven simulation on SNB,
   as recorded by the predictor agreement gate in bench/predictor.ml. *)
let measured_winners =
  [ ("AMD-SS", "without_lm"); ("AMD-MT", "without_lm"); ("NVD-MT", "without_lm");
    ("AMD-RG", "without_lm"); ("AMD-MM", "without_lm"); ("NVD-MM-A", "without_lm");
    ("NVD-MM-B", "with_lm"); ("NVD-MM-AB", "without_lm"); ("NVD-NBody", "with_lm");
    ("PAB-ST", "without_lm"); ("ROD-SC", "without_lm"); ("TNG-GEMM4", "without_lm") ]

let promoted_cases = 6

let sanitized (compiled : Interp.compiled) (w : Kit.workload) =
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  Span.wrap "runtime.sanitized" (fun () ->
      Runtime.run_sanitized compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ())

let predict_inputs (w : Kit.workload) (fn : Ssa.func) (totals : Trace.totals) : Predict.inputs =
  let x, y, z = w.Kit.local in
  { Predict.totals; wg_size = x * y * z; vectorized = H.uses_vector_types fn }

let verify_case (ctx : ctx) (case_idx : int) : bool =
  let case = cases.(case_idx) in
  let sanitize ~run v =
    op ctx ~run (Printf.sprintf "%s/%s sanitize" case.Kit.id (H.version_name v)) (fun () ->
        let fn = compile_version case v in
        let w = mk ctx case in
        refill ctx ~case_idx ~copy:0 fn w;
        let actx = Pass.ctx () in
        Span.wrap "analysis.analyze" (fun () ->
            Grover_analysis.Analysis.analyze ~local_size:w.Kit.local actx fn);
        let compiled = prepare fn in
        let totals, findings = sanitized compiled w in
        match (Pass.errors actx, findings, check w) with
        | d :: _, _, _ -> Error ("static analysis: " ^ Grover_support.Diag.to_string d)
        | [], _ :: _, _ -> Error (Printf.sprintf "%d sanitizer finding(s)" (List.length findings))
        | [], [], Error m -> Error m
        | [], [], Ok () -> Ok (predict_inputs w fn totals))
  in
  let with_lm = sanitize ~run:(3 * case_idx) H.With_lm in
  let without_lm = sanitize ~run:((3 * case_idx) + 1) H.Without_lm in
  let promoted =
    op ctx ~run:((3 * case_idx) + 2) (case.Kit.id ^ " promote") (fun () ->
        let fn0 = compile_version case H.Without_lm in
        let fn = Span.wrap "suite.clone" (fun () -> H.clone_fn fn0) in
        let w = mk ctx case in
        refill ctx ~case_idx ~copy:0 fn w;
        let o, race_free =
          Grover_analysis.Config.with_local (Some w.Kit.local) (fun () ->
              let o = Span.wrap "promote.run" (fun () -> Grover_promote.Promote.run fn) in
              let reports, _, _ = Span.wrap "analysis.race" (fun () -> Grover_analysis.Race.analyse fn) in
              ( o,
                List.for_all
                  (fun (r : Grover_analysis.Race.report) ->
                    r.Grover_analysis.Race.r_verdict = Grover_analysis.Race.Race_free)
                  reports ))
        in
        let compiled = prepare fn in
        let totals, findings = sanitized compiled w in
        let promoted = o.Grover_promote.Promote.promoted <> [] in
        match (race_free || not promoted, findings, check w, with_lm, without_lm) with
        | false, _, _, _, _ -> Error "promoted kernel is not race-free"
        | _, _ :: _, _, _, _ -> Error (Printf.sprintf "%d sanitizer finding(s)" (List.length findings))
        | _, [], Error m, _, _ -> Error m
        | _, [], Ok (), Some w_in, Some wo_in -> (
            let variants =
              [ ("with_lm", w_in); ("without_lm", wo_in) ]
              @ if promoted then [ ("promoted", predict_inputs w fn totals) ] else []
            in
            let ranking = Span.wrap "memsim.predict" (fun () -> Predict.rank P.snb variants) in
            let winner =
              List.find (fun (r : Predict.ranked) -> r.Predict.rk_label <> "promoted") ranking
            in
            match List.assoc_opt case.Kit.id measured_winners with
            | Some m when m = winner.Predict.rk_label -> Ok promoted
            | m ->
                Error
                  (Printf.sprintf "predictor picks %s, measured winner %s" winner.Predict.rk_label
                     (Option.value m ~default:"unknown")))
        | _, [], Ok (), _, _ -> Error "a sanitized run failed, nothing to rank")
  in
  promoted = Some true

let verify =
  {
    name = "verify";
    on_pool = false;
    setup =
      (fun ctx ->
        {
          before = ignore;
          pass =
            (fun () ->
              (* Suite order, whatever the seed, as on fig10: a shuffled
                 order moved peak RSS by 8% between seeds. *)
              let n = ref 0 in
              Array.iteri (fun case_idx _ -> if verify_case ctx case_idx then incr n) cases;
              Span.count "promote.promoted" (float_of_int !n);
              ctx.attempted <- ctx.attempted + 1;
              if !n <> promoted_cases then
                fail ctx "verify: %d cases promoted, expected %d" !n promoted_cases);
          finish = ignore;
        });
  }

let all = [ fig10; stream; compile; verify ]
let find (name : string) = List.find_opt (fun w -> w.name = name) all
