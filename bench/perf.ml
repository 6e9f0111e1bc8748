(* Interpreter throughput benchmark on NVD-MT (matrix transpose), measured
   in work-items/sec over a full launch (trace recording included, no
   platform simulation). Each (version, path, domains, sanitize)
   configuration is timed once:

   - W-wide lane batches (wg-vec, the default for this kernel) vs the
     forced fiber scheduler (the tree-engine oracle), on both the
     barrier-carrying with_lm version and the barrier-free
     Grover-transformed one, and
   - a domain-scaling sweep — (1, 2, 4, 0=auto) requested domains x
     (wg-vec on both versions; forced fibers on the Grover-transformed
     one) — exercising the persistent domain pool and the chunked group
     scheduler, and
   - the wg-vec launch of both versions under the shadow-memory sanitizer
     (one domain), and
   - default-plan rows of the with_lm kernels whose region 0 stages
     shared data behind a lane guard, a store in a masked arm (AMD-SS,
     PAB-ST, ROD-SC), and
   - minor-heap words per work-item of the float4 kernels (TNG-GEMM4,
     NVD-NBody), gated at [alloc_limit], and
   - the sum over the 24 suite versions of their fastest default-plan
     launch (scale 1, one domain, in rounds over the versions), and
   - memsim replay: events/sec of NVD-MT's and PAB-ST with_lm's captured
     groups through fresh SNB, Nehalem and MIC simulators, and the words
     of cache pages each simulator holds at the end.

   Every launch-throughput, masked, masked-region, allocation and
   compile-cache row times the fastest of at least 3 runs (5 with --quick) that
   together ran at least 1 s (0.2 s with --quick); the suite launches
   take as many rounds and seconds per version.

   Every row records which execution path ran (wg-vec / fiber), the
   batch width of its plan (the work-group on wg-vec, 1 on fibers) and
   how many pool domains were actually used, so the numbers feeding
   tuning decisions are auditable. The run *fails* if no row of a
   version actually ran W-wide batches — the bench doubles as the gate
   that lane compilation and region formation keep succeeding on the
   flagship kernel in both versions. Results go to stdout and
   BENCH_interp.json; with [check_scaling] the run fails if the
   auto-domain row is >10% slower than the single-domain row (the
   regression the persistent pool exists to prevent). *)

open Grover_ocl
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module Nvd_mt = Grover_suite.Nvd_mt
module Nvd_mm = Grover_suite.Nvd_mm

(* The suite workload builder treats [scale] as a divisor of the 256^2
   base problem, so the 512^2 benchmark size is built directly here. *)
let mk_transpose ~n : Kit.workload =
  let mem = Memory.create () in
  let out = Memory.alloc mem Grover_ir.Ssa.F32 (n * n) in
  let inp = Memory.alloc mem Grover_ir.Ssa.F32 (n * n) in
  let gen = Kit.float_gen 42 in
  Memory.fill_floats inp (fun _ -> gen ());
  let check () =
    let i = Memory.to_float_array inp and o = Memory.to_float_array out in
    let expected = Array.init (n * n) (fun k -> i.((k mod n * n) + (k / n))) in
    Kit.check_floats ~label:"NVD-MT" ~expected ~actual:o ~eps:0.0
  in
  {
    Kit.mem;
    args = [ Runtime.Abuf out; Runtime.Abuf inp; Runtime.Aint n; Runtime.Aint n ];
    global = (n, n, 1);
    local = (16, 16, 1);
    check;
  }

type row = {
  version : H.version;
  domains : int;  (** requested (0 = auto) *)
  path : string;  (** execution path actually taken: wg-vec / fiber *)
  lane_width : int;  (** work-items per batch of the plan; 1 for fibers *)
  pool_domains : int;  (** domains actually used, incl. the caller *)
  clamped : bool;
      (** the request exceeded the hardware cap or the profitable
          per-domain share and was clamped down *)
  sanitize : bool;  (** launched through the shadow-memory sanitizer *)
  seconds : float;
  wi_per_sec : float;
}

let version_name = function H.With_lm -> "with_lm" | H.Without_lm -> "without_lm"

(* The fastest of at least [reps] calls of [f] that together ran at least
   [min_s] seconds; [after] runs untimed after each call. Noise only ever
   makes a launch slower, and on a VM whose speed level moves between
   runs a fixed three launches of 20–70 ms spread a row up to 2x; a
   second of launches does not. *)
let min_time ?(after = ignore) ~(reps : int) ~(min_s : float) (f : unit -> unit) : float =
  let best = ref infinity and spent = ref 0.0 and k = ref 0 in
  while !k < reps || !spent < min_s do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    after ();
    if dt < !best then best := dt;
    spent := !spent +. dt;
    incr k
  done;
  !best

let measure ~(version : H.version) ?force_path ?(sanitize = false)
    ~(domains : int) ~(n : int) ~(reps : int) ~(min_s : float) () : row =
  let fn, _ = H.compile_version Nvd_mt.case version in
  let compiled = Interp.prepare fn in
  let w = mk_transpose ~n in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let p = Runtime.plan compiled ~cfg ?force_path ~domains () in
  let one_launch () =
    if sanitize then begin
      (* A fresh shadow state per launch, as `groverc sanitize` would pay. *)
      let _totals, findings =
        Runtime.run_sanitized compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem
          ?force_path ()
      in
      if findings <> [] then failwith "perf bench: unexpected sanitizer finding"
    end
    else
      ignore
        (Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~domains
           ?force_path ())
  in
  (* One untimed warm-up launch: first-touch page faults, pool-domain
     spawning and GC ramp-up otherwise land on whichever row runs first
     and skew the scaling comparison at small sizes. *)
  one_launch ();
  let best = min_time ~reps ~min_s one_launch in
  (match w.Kit.check () with
  | Ok () -> ()
  | Error m -> failwith ("perf bench produced wrong output: " ^ m));
  let n_items = n * n in
  {
    version;
    domains;
    path = Runtime.path_name p;
    lane_width = Runtime.batch_width cfg p.Runtime.path;
    pool_domains = p.Runtime.domains_used;
    clamped = p.Runtime.domains_clamped;
    sanitize;
    seconds = best;
    wi_per_sec = float_of_int n_items /. best;
  }

(* -- Compile-cache timing -----------------------------------------------------

   Cold (sequential, sequential through the disk tier, and parallel batch)
   vs warm (memory tier, disk tier) compile time for the whole 12-kernel
   suite in both versions, each row the fastest of at least [reps] runs
   and [min_s] seconds, plus the hit rates the warm runs achieved.
   Doubles as the gate that the cache actually pays for itself: a warm
   memory-tier compile of the suite must be at least 5x faster than a
   cold one. *)

module Cache = Grover_cache.Compile_cache

type cache_stats = {
  cs_requests : int;
  cs_distinct : int;
  cs_cold_seq : float;
  cs_cold_seq_disk : float;
  cs_cold_batch : float;
  cs_warm_mem : float;
  cs_warm_disk : float;
  cs_warm_mem_hits : int;
  cs_warm_disk_hits : int;
}

let cache_bench ~(reps : int) ~(min_s : float) () : cache_stats =
  let rqs =
    List.concat_map
      (fun (case : Kit.case) ->
        List.map
          (fun variant ->
            Cache.request ~defines:case.Kit.defines ~variant case.Kit.source)
          [ Cache.With_lm; Cache.Without_lm case.Kit.remove ])
      Grover_suite.Suite.all
  in
  let distinct =
    List.length (List.sort_uniq compare (List.map Cache.key_of_request rqs))
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "grover-bench-cache-%d" (Unix.getpid ()))
  in
  let compile_all c = List.iter (fun rq -> ignore (Cache.compile c rq)) rqs in
  (* A cold run through the disk tier leaves its artifacts for [after] to
     remove. *)
  let disk = Cache.create ~dir () in
  let after () = Cache.clear disk in
  (* Cold, sequential: every request built front to back, one domain. *)
  let cold_seq = min_time ~reps ~min_s (fun () -> compile_all (Cache.create ())) in
  (* Cold, sequential, disk tier: every request through a fresh directory
     on one domain, each miss writing its artifact file. *)
  let cold_seq_disk = min_time ~after ~reps ~min_s (fun () -> compile_all (Cache.create ~dir ())) in
  (* Cold, batch: distinct misses spread over the domain pool, artifacts
     published to the disk tier. *)
  let cold_batch =
    min_time ~after ~reps ~min_s (fun () -> ignore (Cache.compile_batch (Cache.create ~dir ()) rqs))
  in
  (* Warm, memory tier: the same cache instance replays from prepared
     closures. *)
  let batch_cache = Cache.create ~dir () in
  ignore (Cache.compile_batch batch_cache rqs);
  let warm_mem =
    min_time ~reps ~min_s (fun () ->
        Cache.reset_stats batch_cache;
        ignore (Cache.compile_batch batch_cache rqs))
  in
  let mem_hits = (Cache.stats batch_cache).Cache.st_mem_hits in
  (* Warm, disk tier: a fresh process would start here — artifacts load
     from disk and only [Interp.prepare] is re-paid. *)
  let disk_hits = ref 0 in
  let warm_disk =
    min_time ~reps ~min_s (fun () ->
        let c = Cache.create ~dir () in
        ignore (Cache.compile_batch c rqs);
        disk_hits := (Cache.stats c).Cache.st_disk_hits)
  in
  after ();
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  {
    cs_requests = List.length rqs;
    cs_distinct = distinct;
    cs_cold_seq = cold_seq;
    cs_cold_seq_disk = cold_seq_disk;
    cs_cold_batch = cold_batch;
    cs_warm_mem = warm_mem;
    cs_warm_disk = warm_disk;
    cs_warm_mem_hits = mem_hits;
    cs_warm_disk_hits = !disk_hits;
  }

let report_cache (cs : cache_stats) : unit =
  Printf.printf
    "\ncompile cache: %d requests (%d distinct) across the suite\n" cs.cs_requests
    cs.cs_distinct;
  Printf.printf "%-28s %12s %14s\n" "tier" "seconds" "vs cold-seq";
  List.iter
    (fun (label, s) ->
      Printf.printf "%-28s %12.4f %13.1fx\n" label s (cs.cs_cold_seq /. s))
    [ ("cold sequential", cs.cs_cold_seq);
      ("cold sequential, disk tier", cs.cs_cold_seq_disk);
      ("cold parallel batch", cs.cs_cold_batch);
      ("warm memory tier", cs.cs_warm_mem);
      ("warm disk tier", cs.cs_warm_disk) ];
  Printf.printf "warm hit rate: memory %d/%d, disk %d/%d\n" cs.cs_warm_mem_hits
    cs.cs_requests cs.cs_warm_disk_hits cs.cs_distinct;
  (* The acceptance gate: if a warm compile is not >= 5x a cold one, the
     cache is overhead, not a cache. *)
  if cs.cs_cold_seq < 5.0 *. cs.cs_warm_mem then begin
    Printf.eprintf
      "perf bench FAILED: warm-cache compile (%.4fs) is not >= 5x faster \
       than cold (%.4fs)\n"
      cs.cs_warm_mem cs.cs_cold_seq;
    exit 1
  end;
  if cs.cs_warm_mem_hits < cs.cs_requests then begin
    Printf.eprintf
      "perf bench FAILED: warm memory-tier run hit only %d/%d requests\n"
      cs.cs_warm_mem_hits cs.cs_requests;
    exit 1
  end

(* -- Masked lane execution ----------------------------------------------------

   The if-conversion tally and its payoff. [masked_region_count] walks the
   whole suite (both versions) and counts the region entries whose lane
   verdict is [Lane_masked] — divergent-but-pure diamonds that the lane
   compiler runs under a per-lane mask instead of sending the kernel to
   fibers. The bench *fails* if the count is zero:
   the guard-diamond kernels (NVD-MM boundary clamp, NBody tail guard)
   must keep qualifying, or the masked path has silently rotted back to
   bail-on-divergence.

   [masked_bench] then measures what masking buys on one upgraded kernel:
   NVD-MM-A with_lm, whose row clamp would otherwise send the kernel to
   the fiber scheduler, in masked W-wide batches vs forced fibers. Both
   runs validate their output against the host reference. *)

module Regions = Grover_ir.Regions

let suite_pairs () : (Kit.case * H.version) list =
  List.concat_map
    (fun c -> [ (c, H.With_lm); (c, H.Without_lm) ])
    Grover_suite.Suite.all

type masked_stats = {
  mk_regions : int;  (** [Lane_masked] region entries across the suite *)
  mk_case : string;  (** the upgraded kernel measured below *)
  mk_lane_width : int;
  mk_vec_wi_per_sec : float;  (** masked wg-vec throughput *)
  mk_fiber_wi_per_sec : float;  (** forced fiber throughput *)
  mk_speedup : float;  (** masked W-wide / fiber *)
}

let masked_region_count () : int =
  List.fold_left
    (fun acc ((case : Kit.case), v) ->
      let fn, _ = H.compile_version case v in
      match Regions.form fn with
      | Regions.Formed i ->
          Array.fold_left
            (fun a e ->
              match e with Regions.Lane_masked _ -> a + 1 | _ -> a)
            acc i.Regions.lane_entries
      | Regions.Fallback _ -> acc)
    0 (suite_pairs ())

let masked_bench ~(quick : bool) ~(reps : int) ~(min_s : float) () : masked_stats =
  let regions = masked_region_count () in
  if regions = 0 then begin
    Printf.eprintf
      "perf bench FAILED: no suite region runs masked lane batches \
       (if-conversion of guard diamonds fell back to fibers?)\n";
    exit 1
  end;
  let case = Nvd_mm.case_a in
  let fn, _ = H.compile_version case H.With_lm in
  let compiled = Interp.prepare fn in
  let scale = if quick then 4 else 1 in
  let w = case.Kit.mk ~scale in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let gx, gy, gz = w.Kit.global in
  let items = float_of_int (gx * gy * gz) in
  let throughput force_path want =
    let p = Runtime.plan compiled ~cfg ~force_path () in
    if p.Runtime.path <> force_path then begin
      Printf.eprintf
        "perf bench FAILED: %s forced onto %s ran %s (batch width %d) \
         instead (masked lane compilation lost the kernel?)\n"
        case.Kit.id want (Runtime.path_name p)
        (Runtime.batch_width cfg p.Runtime.path);
      exit 1
    end;
    let one () =
      ignore
        (Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem
           ~force_path ())
    in
    one ();
    let best = min_time ~reps ~min_s one in
    (match w.Kit.check () with
    | Ok () -> ()
    | Error m ->
        failwith
          (Printf.sprintf "perf bench: %s on %s produced wrong output: %s"
             case.Kit.id want m));
    items /. best
  in
  let vec = throughput Runtime.Lanes "W-wide batches" in
  let fiber = throughput Runtime.Fiber "fibers" in
  {
    mk_regions = regions;
    mk_case = case.Kit.id;
    mk_lane_width = Runtime.batch_width cfg Runtime.Lanes;
    mk_vec_wi_per_sec = vec;
    mk_fiber_wi_per_sec = fiber;
    mk_speedup = vec /. fiber;
  }

let report_masked (s : masked_stats) : unit =
  Printf.printf
    "\nmasked lane execution: %d region(s) across the suite run divergent \
     diamonds if-converted\n\
    \  %s with_lm, masked wg-vec (%d lanes) vs forced fibers: %.0f vs %.0f \
     wi/sec (%.2fx)\n"
    s.mk_regions s.mk_case s.mk_lane_width s.mk_vec_wi_per_sec
    s.mk_fiber_wi_per_sec s.mk_speedup

(* -- Default-plan launch rows ---------------------------------------------------

   Throughput and minor-heap words allocated per work-item of one
   default-plan launch (scale 1, one domain) of a suite version.

   - The allocation gate: the float4 kernels (TNG-GEMM4 and NVD-NBody,
     both versions), plain and through the sanitizer. Vector values live
     in per-component slots and float operands are read inside the lane
     loops, and a sanitized access only reads and writes shadow stamps,
     so a launch allocates next to nothing per work-item; the run fails
     when a row exceeds [alloc_limit], which the boxed-vector
     representation exceeded 15 to 80 times over and a closure-building
     sanitizer 3 to 11 times over.
   - The masked region-0 rows: AMD-SS, PAB-ST and ROD-SC with_lm, the
     default-plan launches whose region 0 stages shared data into
     [__local] memory behind a lane guard, so it runs W-wide batches
     with the guarded store in a masked arm. Recorded, not gated. *)

type alloc_row = {
  ar_case : string;
  ar_version : H.version;
  ar_path : string;
  ar_sanitize : bool;
  ar_wi_per_sec : float;
  ar_words_per_wi : float;
}

let alloc_limit = 512.0

let launch_rows ~(sanitize : bool) ~(reps : int) ~(min_s : float)
    (pairs : (Kit.case * H.version) list) : alloc_row list =
  List.map
    (fun ((case : Kit.case), version) ->
      let fn, _ = H.compile_version case version in
      let compiled = Interp.prepare fn in
      let w = case.Kit.mk ~scale:1 in
      let cfg =
        { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
      in
      let gx, gy, gz = w.Kit.global in
      let items = float_of_int (gx * gy * gz) in
      let launch () =
        if sanitize then begin
          let _totals, findings =
            Runtime.run_sanitized compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem
              ()
          in
          if findings <> [] then
            failwith
              (Printf.sprintf "perf bench: %s: unexpected sanitizer finding"
                 case.Kit.id)
        end
        else
          ignore
            (Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem
               ~domains:1 ())
      in
      launch ();
      let w0 = Gc.minor_words () in
      launch ();
      let words = Gc.minor_words () -. w0 in
      let best = min_time ~reps ~min_s launch in
      (match w.Kit.check () with
      | Ok () -> ()
      | Error m ->
          failwith
            (Printf.sprintf "perf bench: %s produced wrong output: %s"
               case.Kit.id m));
      {
        ar_case = case.Kit.id;
        ar_version = version;
        ar_path = Runtime.path_name (Runtime.plan compiled ~cfg ~domains:1 ());
        ar_sanitize = sanitize;
        ar_wi_per_sec = items /. best;
        ar_words_per_wi = words /. items;
      })
    pairs

let alloc_bench ~(reps : int) ~(min_s : float) () : alloc_row list =
  let pairs =
    List.concat_map
      (fun c -> [ (c, H.With_lm); (c, H.Without_lm) ])
      [ Grover_suite.Gemm4.case; Grover_suite.Nvd_nbody.case ]
  in
  launch_rows ~sanitize:false ~reps ~min_s pairs
  @ launch_rows ~sanitize:true ~reps ~min_s pairs

let masked_region_bench ~(reps : int) ~(min_s : float) () : alloc_row list =
  launch_rows ~sanitize:false ~reps ~min_s
    (List.map
       (fun id ->
         ( List.find (fun (c : Kit.case) -> c.Kit.id = id) Grover_suite.Suite.all,
           H.With_lm ))
       [ "AMD-SS"; "PAB-ST"; "ROD-SC" ])

let print_launch_rows (rows : alloc_row list) : unit =
  Printf.printf "%-12s %-12s %-8s %-8s %14s %14s\n" "case" "version" "path"
    "sanitize" "wi/sec" "words/wi";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-12s %-8s %-8s %14.0f %14.1f\n" r.ar_case
        (version_name r.ar_version) r.ar_path
        (if r.ar_sanitize then "yes" else "no")
        r.ar_wi_per_sec r.ar_words_per_wi)
    rows

let report_masked_region (rows : alloc_row list) : unit =
  Printf.printf
    "\ndefault plan with a guarded store in a masked arm of region 0: one \
     launch, scale 1, 1 domain\n";
  print_launch_rows rows

let report_alloc (rows : alloc_row list) : unit =
  Printf.printf
    "\nallocation: one default-plan launch, scale 1, 1 domain (gate: <= %.0f \
     minor words per work-item)\n"
    alloc_limit;
  print_launch_rows rows;
  match List.filter (fun r -> r.ar_words_per_wi > alloc_limit) rows with
  | [] -> ()
  | bad ->
      List.iter
        (fun r ->
          Printf.eprintf
            "perf bench FAILED: %s %s%s allocates %.0f minor words per \
             work-item (limit %.0f)\n"
            r.ar_case (version_name r.ar_version)
            (if r.ar_sanitize then " (sanitized)" else "")
            r.ar_words_per_wi alloc_limit)
        bad;
      exit 1

(* -- Suite launches -----------------------------------------------------------------

   The 24 suite versions' default-plan launches at scale 1 on one domain,
   each version's fastest launch, and their sum: execution measured in
   one process on the wall clock, with nothing of bench/e2e's
   speed-normalized clock in it, so an execution claim read there can be
   checked here. Launches run in rounds that visit every version in
   turn, at least [reps] rounds and [min_s] seconds per version in all,
   so a slow period of the host lands on every version alike instead of
   on the few whose launches it overlaps. Each version is validated. No
   gate: compare the sum only with a run of the other tree made minutes
   apart, as [suite_launch_before] in BENCH_interp.json. *)

type suite_launch_row = {
  sl_case : string;
  sl_version : H.version;
  sl_path : string;
  sl_lanes : int;
  sl_seconds : float;
}

let suite_launch_bench ~(reps : int) ~(min_s : float) () : suite_launch_row list =
  let runs =
    List.map
      (fun ((case : Kit.case), version) ->
        let fn, _ = H.compile_version case version in
        let compiled = Interp.prepare fn in
        let w = case.Kit.mk ~scale:1 in
        let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
        let launch () =
          ignore (Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~domains:1 ())
        in
        launch ();
        (case, version, compiled, w, cfg, launch, ref infinity))
      (suite_pairs ())
  in
  let budget = min_s *. float_of_int (List.length runs) in
  let spent = ref 0.0 and rounds = ref 0 in
  while !rounds < reps || !spent < budget do
    List.iter
      (fun (_, _, _, _, _, launch, best) ->
        let t0 = Unix.gettimeofday () in
        launch ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt;
        spent := !spent +. dt)
      runs;
    incr rounds
  done;
  List.map
    (fun ((case : Kit.case), version, compiled, (w : Kit.workload), cfg, _, best) ->
      (match w.Kit.check () with
      | Ok () -> ()
      | Error m ->
          failwith (Printf.sprintf "perf bench: %s produced wrong output: %s" case.Kit.id m));
      let p = Runtime.plan compiled ~cfg ~domains:1 () in
      {
        sl_case = case.Kit.id;
        sl_version = version;
        sl_path = Runtime.path_name p;
        sl_lanes = Runtime.batch_width cfg p.Runtime.path;
        sl_seconds = !best;
      })
    runs

let suite_launch_sum rows = List.fold_left (fun a r -> a +. r.sl_seconds) 0.0 rows

let report_suite_launch (rows : suite_launch_row list) : unit =
  Printf.printf
    "\nsuite launches: default plan, scale 1, 1 domain, fastest launch per version over \
     rounds of all versions\n";
  Printf.printf "%-12s %-12s %-8s %5s %12s\n" "case" "version" "path" "lanes" "ms";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-12s %-8s %5d %12.3f\n" r.sl_case (version_name r.sl_version)
        r.sl_path r.sl_lanes (r.sl_seconds *. 1e3))
    rows;
  Printf.printf "suite launches: sum %.2f ms over %d versions\n" (suite_launch_sum rows *. 1e3)
    (List.length rows)

(* -- Memsim replay ----------------------------------------------------------------

   Events per second through the performance simulator, with no execution
   timed. The groups of one launch are copied out of the pooled
   [on_group] buffer once, each as work-group 0: every group replays on
   core 0, as in earlier runs of these rows. NVD-MT's groups (both
   versions, at the size the rows above time) are swept as one batch per
   region, so every record covers the whole group and every SIMD batch
   replays in lockstep; PAB-ST with_lm's (scale 1) store their halo
   columns ([lx < 2], two lanes a row) in a masked arm as one-lane
   records, so the SIMD batches holding those lanes go through the
   simulator's lane index and the others replay in lockstep. Each round
   then replays them through a fresh SNB, Nehalem and MIC simulator:
   [create], every [consume] and [result]. Min of [replay_rounds] per
   row. [batches] counts the groups' SIMD batches on the platform and
   [lockstep] those replayed in lockstep, [events] the events the
   groups' records represent, [records] the records stored, [cache
   words] the words of the cache pages the simulator holds at [result]
   and [eager words] the sets x ways slots of all its caches. *)

module Sim = Grover_memsim.Simulate
module Mcache = Grover_memsim.Cache

type replay_row = {
  rr_case : string;
  rr_version : H.version;
  rr_platform : string;
  rr_groups : int;
  rr_batches : int;  (** SIMD batches of the groups on the platform *)
  rr_lockstep : int;  (** of those, the batches replayed in lockstep *)
  rr_events : int;
  rr_records : int;
  rr_cache_words : int;  (** words of the cache pages held at [result] *)
  rr_eager_words : int;  (** sets x ways over the simulator's caches *)
  rr_seconds : float;
  rr_events_per_sec : float;
}

let replay_rounds = 20

(* Words of the cache pages [sim] holds, and the slots of every set of
   its caches. *)
let cache_words (sim : Sim.t) : int * int =
  let caches =
    Option.to_list sim.Sim.shared
    @ List.concat_map
        (fun (q : Sim.core) -> Option.to_list q.Sim.l1 @ Option.to_list q.Sim.l2)
        (Array.to_list sim.Sim.cores)
  in
  List.fold_left
    (fun (held, eager) (c : Mcache.t) ->
      ( Array.fold_left (fun a p -> a + Array.length p) held c.Mcache.pages,
        eager + (c.Mcache.sets * c.Mcache.cfg.Mcache.ways) ))
    (0, 0) caches

let capture_groups (case : Kit.case) ~(version : H.version) (w : Kit.workload) :
    bool * Trace.wg_stats array =
  let fn, _ = H.compile_version case version in
  let compiled = Interp.prepare fn in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let groups = ref [] in
  let on_group (s : Trace.wg_stats) =
    groups :=
      { s with Trace.wg_id = 0; recs = Array.sub s.Trace.recs 0 (s.Trace.n_recs * Trace.rec_words) }
      :: !groups
  in
  ignore (Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~on_group ~domains:1 ());
  (H.uses_vector_types fn, Array.of_list (List.rev !groups))

let replay_bench ~(n : int) () : replay_row list =
  let pab_st = Grover_suite.Pab_st.case in
  let replays =
    List.concat_map
      (fun ((case : Kit.case), version, w) ->
        let vectorized, groups = capture_groups case ~version w in
        List.map
          (fun (plat : Grover_memsim.Platform.t) ->
            let replay () =
              let sim = Sim.create ~vectorized plat in
              Array.iter (Sim.consume sim) groups;
              (Sim.result sim, sim)
            in
            let expected, sim = replay () in
            (case, version, plat, groups, replay, expected, cache_words sim, ref infinity))
          Grover_memsim.Platform.cache_only)
      [ (Nvd_mt.case, H.With_lm, mk_transpose ~n);
        (Nvd_mt.case, H.Without_lm, mk_transpose ~n);
        (pab_st, H.With_lm, pab_st.Kit.mk ~scale:1) ]
  in
  (* Rounds visit every row in turn, so a slow spell of a shared host
     lands on all rows' rounds alike instead of on one row's minimum. *)
  for _ = 1 to replay_rounds do
    List.iter
      (fun (_, _, _, _, replay, expected, _, best) ->
        let t0 = Unix.gettimeofday () in
        let r, _ = replay () in
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt;
        if r <> expected then failwith "perf bench: memsim replay is not deterministic")
      replays
  done;
  List.map
    (fun ( (case : Kit.case), version, (plat : Grover_memsim.Platform.t), groups, _, _,
           (held, eager), best ) ->
      let events = Array.fold_left (fun a s -> a + s.Trace.n_events) 0 groups in
      let records = Array.fold_left (fun a s -> a + s.Trace.n_recs) 0 groups in
      let sim = Sim.create plat in
      let verdicts = Array.map (Sim.lockstep_batches sim) groups in
      let count f = Array.fold_left (fun a v -> a + f v) 0 verdicts in
      {
        rr_case = case.Kit.id;
        rr_version = version;
        rr_platform = plat.Grover_memsim.Platform.name;
        rr_groups = Array.length groups;
        rr_batches = count Array.length;
        rr_lockstep = count (Array.fold_left (fun a l -> a + Bool.to_int l) 0);
        rr_events = events;
        rr_records = records;
        rr_cache_words = held;
        rr_eager_words = eager;
        rr_seconds = !best;
        rr_events_per_sec = float_of_int events /. !best;
      })
    replays

let report_replay ~(n : int) (rows : replay_row list) : unit =
  Printf.printf
    "\nmemsim replay: NVD-MT %dx%d and PAB-ST (scale 1) groups captured once \
     (all on core 0), replayed through a fresh simulator (create + consume + \
     result), min of %d\n"
    n n replay_rounds;
  Printf.printf "%-8s %-12s %-8s %8s %9s %9s %10s %9s %11s %11s %12s %14s\n" "case" "version"
    "platform" "groups" "batches" "lockstep" "events" "records" "cache words" "eager words"
    "seconds" "events/sec";
  List.iter
    (fun r ->
      Printf.printf "%-8s %-12s %-8s %8d %9d %9d %10d %9d %11d %11d %12.4f %14.0f\n" r.rr_case
        (version_name r.rr_version) r.rr_platform r.rr_groups r.rr_batches r.rr_lockstep
        r.rr_events r.rr_records r.rr_cache_words r.rr_eager_words r.rr_seconds
        r.rr_events_per_sec)
    rows

(* -- Multi-launch (out-of-order queue) throughput -----------------------------

   The whole suite in both versions x [jobs] independent workloads each,
   submitted two ways: one serial [Runtime.launch] at a time, and all at
   once through one out-of-order [Queue] drained across the domain pool.
   Differential first — both submissions must produce bit-identical
   global buffers and identical per-launch trace totals — then
   throughput: on a multi-core host the queue must actually pipeline
   (>= 1.3x quick / >= 2x full aggregate wi/sec); on a single effective
   domain the speedup gate is vacuous and only the overhead gate (queued
   within 10% of sequential) applies, via --check-scaling. *)

type ml_stats = {
  ml_launches : int;
  ml_items : int;
  ml_seq_seconds : float;
  ml_q_seconds : float;
  ml_speedup : float;  (** sequential seconds / queued seconds *)
  ml_pool_domains : int;  (** pool width the queue drained with *)
  ml_clamped : bool;  (** true when the hardware cap limited the pool *)
  ml_gate : string;  (** "enforced (...)" or "skipped (...)" *)
}

(* Snapshot of every Global/Constant buffer in a prepared set, keyed by
   per-workload allocation id. Local/Private scratch is excluded: the
   sequential path allocates it into the workload memory while the queue
   path uses per-domain scratch arenas, so only the user-visible spaces
   are comparable — and those are exactly what bit-identical means. *)
let global_storages (pls : H.prepared_launch list) :
    (int * Memory.storage) list list =
  List.map
    (fun (pl : H.prepared_launch) ->
      pl.H.pl_w.Kit.mem.Memory.buffers
      |> List.filter (fun (b : Memory.buffer) ->
             match b.Memory.space with
             | Grover_ir.Ssa.Global | Grover_ir.Ssa.Constant -> true
             | _ -> false)
      |> List.map (fun (b : Memory.buffer) -> (b.Memory.bid, b.Memory.st))
      |> List.sort compare)
    pls

let multi_launch_bench ~(quick : bool) ~(reps : int) () : ml_stats =
  let jobs = if quick then 2 else 4 in
  let scale = if quick then 8 else 4 in
  let set = suite_pairs () in
  (* Differential pass: two identically-prepared sets (Kit workloads seed
     their PRNG per case, so inputs are bit-identical), one run each way. *)
  let pls_seq = H.prepare_launches ~jobs ~scale set in
  let pls_q = H.prepare_launches ~jobs ~scale set in
  let seq_t0, tot_seq = H.run_sequential pls_seq in
  let q_t0, tot_q = H.run_queued ~domains:0 pls_q in
  H.validate_launches pls_seq;
  H.validate_launches pls_q;
  if global_storages pls_seq <> global_storages pls_q then begin
    Printf.eprintf
      "perf bench FAILED: multi-launch queued buffers differ from \
       sequential (schedule leaked into results)\n";
    exit 1
  end;
  if tot_seq <> tot_q then begin
    Printf.eprintf
      "perf bench FAILED: multi-launch queued trace totals differ from \
       sequential\n";
    exit 1
  end;
  (* Throughput pass: interleaved re-runs over the same (already warm)
     prepared sets, best-of-reps each way. The kernels are deterministic
     functions of their (unchanged) inputs, so re-running only rewrites
     the outputs with the same values. *)
  let best_seq = ref seq_t0 and best_q = ref q_t0 in
  for _ = 1 to reps do
    let s, _ = H.run_sequential pls_seq in
    if s < !best_seq then best_seq := s;
    let q, _ = H.run_queued ~domains:0 pls_q in
    if q < !best_q then best_q := q
  done;
  let width =
    min (Runtime.resolve_domains 0) (Runtime.effective_domain_cap ())
  in
  let need_domains = if quick then 2 else 4 in
  let need_speedup = if quick then 1.3 else 2.0 in
  (* A failed speedup gate gets two more attempts: a load burst on a
     shared machine can depress one side; a real pipelining failure
     cannot pass even once. *)
  let rec retime k =
    let speedup = !best_seq /. !best_q in
    if speedup >= need_speedup || k >= 3 then speedup
    else begin
      let s, _ = H.run_sequential pls_seq in
      if s < !best_seq then best_seq := s;
      let q, _ = H.run_queued ~domains:0 pls_q in
      if q < !best_q then best_q := q;
      retime (k + 1)
    end
  in
  let gate =
    if width >= need_domains then begin
      let speedup = retime 1 in
      if speedup < need_speedup then begin
        Printf.eprintf
          "perf bench FAILED: multi-launch queue at %d domains reached only \
           %.2fx over sequential (need >= %.1fx)\n"
          width speedup need_speedup;
        exit 1
      end;
      Printf.sprintf "enforced (>= %.1fx at %d domains)" need_speedup width
    end
    else
      Printf.sprintf "skipped (only %d effective domain%s, need >= %d)" width
        (if width = 1 then "" else "s")
        need_domains
  in
  {
    ml_launches = List.length pls_seq;
    ml_items = H.launch_items pls_seq;
    ml_seq_seconds = !best_seq;
    ml_q_seconds = !best_q;
    ml_speedup = !best_seq /. !best_q;
    ml_pool_domains = width;
    ml_clamped = width < Runtime.resolve_domains 0;
    ml_gate = gate;
  }

let report_multi_launch (s : ml_stats) : unit =
  let items = float_of_int s.ml_items in
  Printf.printf
    "\nmulti-launch queue: %d launches, %d work-items, %d pool domain%s%s\n\
    \  sequential %12.4fs %14.0f wi/sec\n\
    \  queued     %12.4fs %14.0f wi/sec  (%.2fx)\n\
    \  speedup gate: %s\n"
    s.ml_launches s.ml_items s.ml_pool_domains
    (if s.ml_pool_domains = 1 then "" else "s")
    (if s.ml_clamped then " (clamped)" else "")
    s.ml_seq_seconds
    (items /. s.ml_seq_seconds)
    s.ml_q_seconds
    (items /. s.ml_q_seconds)
    s.ml_speedup s.ml_gate

let run ?(quick = false) ?(check_scaling = false) ?(multi_launch = false) () :
    unit =
  (* Quick mode still needs runs long enough for the 10% scaling gate:
     at 128^2 a row finishes in ~3 ms and timer noise alone exceeds the
     gate, so quick uses 256^2 with best-of-5. The launch rows take the
     fastest of at least [reps] launches and [min_s] seconds. *)
  let n = if quick then 256 else 512 in
  let reps = if quick then 5 else 3 in
  let min_s = if quick then 0.2 else 1.0 in
  Exp.header
    (Printf.sprintf
       "Interpreter throughput: NVD-MT %dx%d, fastest of >= %d launches and \
        >= %.1f s per row (work-items/sec; lane batches vs the fiber oracle; \
        domain-scaling sweep on the persistent pool)"
       n n reps min_s);
  let m = measure ~n ~reps ~min_s in
  let sweep version force_path =
    List.map (fun domains -> m ~version ?force_path ~domains ()) [ 1; 2; 4; 0 ]
  in
  (* Per version: wg-vec on every domain count; the fiber oracle on one
     domain for with_lm and on every domain count for the barrier-free
     version; and the sanitizer (always one domain: the shadow state is
     not thread-safe) against the plain wg-vec row. *)
  let rows =
    List.concat_map
      (fun version ->
        sweep version None
        @ (match version with
          | H.With_lm -> [ m ~version ~force_path:Runtime.Fiber ~domains:1 () ]
          | H.Without_lm -> sweep version (Some Runtime.Fiber))
        @ [ m ~version ~domains:1 ~sanitize:true () ])
      [ H.With_lm; H.Without_lm ]
  in
  Printf.printf "%-12s %-8s %-10s %5s %6s %7s %9s %12s %14s\n" "version"
    "domains" "path" "lanes" "pool" "clamped" "sanitize" "seconds" "wi/sec";
  List.iter
    (fun r ->
      Printf.printf "%-12s %-8s %-10s %5d %6d %7s %9s %12.4f %14.0f\n"
        (version_name r.version)
        (if r.domains = 0 then "auto" else string_of_int r.domains)
        r.path r.lane_width r.pool_domains
        (if r.clamped then "yes" else "no")
        (if r.sanitize then "yes" else "no")
        r.seconds r.wi_per_sec)
    rows;
  let find ?(path = "") ?(sanitize = false) v d =
    List.find
      (fun r ->
        r.version = v && r.domains = d && r.sanitize = sanitize && (path = "" || r.path = path))
      rows
  in
  (* Lane compilation and region formation must keep succeeding on the
     flagship kernel: if a version's rows ran no W-wide batches, the fast
     path silently rotted and every "speedup from disabling local
     memory" number would conflate the paper's effect with scheduler
     overhead again. *)
  let gate version =
    if
      not
        (List.exists
           (fun r ->
             r.version = version && r.path = "wg-vec" && (not r.sanitize) && r.lane_width > 1)
           rows)
    then begin
      Printf.eprintf
        "perf bench FAILED: no %s row ran W-wide batches (lane compilation / region \
         formation fell back?)\n"
        (version_name version);
      exit 1
    end
  in
  gate H.With_lm;
  gate H.Without_lm;
  let wide v = find ~path:"wg-vec" v 1 in
  let fiber v = find ~path:"fiber" v 1 in
  let ratio a b = a.wi_per_sec /. b.wi_per_sec in
  let speedup v = ratio (wide v) (fiber v) in
  let sp_with = speedup H.With_lm and sp_without = speedup H.Without_lm in
  let overhead v = ratio (wide v) (find ~sanitize:true v 1) in
  let ov_with = overhead H.With_lm and ov_without = overhead H.Without_lm in
  let cs = cache_bench ~reps ~min_s () in
  report_cache cs;
  let mk = masked_bench ~quick ~reps ~min_s () in
  report_masked mk;
  let masked_region = masked_region_bench ~reps ~min_s () in
  report_masked_region masked_region;
  let alloc = alloc_bench ~reps ~min_s () in
  report_alloc alloc;
  let suite_launch = suite_launch_bench ~reps ~min_s () in
  report_suite_launch suite_launch;
  let replay = replay_bench ~n () in
  report_replay ~n replay;
  let ml = if multi_launch then Some (multi_launch_bench ~quick ~reps ()) else None in
  Option.iter report_multi_launch ml;
  (* The predictor-agreement gate runs in every mode, quick included: if
     the analytical model stops picking the measured winners, `groverc
     promote --predict` would start recording wrong tuning decisions. *)
  let pa = Predictor.agreement_gate () in
  Printf.printf
    "\nwg-vec vs forced fibers (1 domain): with_lm %.2fx, without_lm %.2fx\n\
     sanitizer overhead (plain / sanitized wi/sec): with_lm %.2fx, \
     without_lm %.2fx\n"
    sp_with sp_without ov_with ov_without;
  if not quick then begin
  let oc = open_out "BENCH_interp.json" in
  Printf.fprintf oc
    "{\n  \"bench\": \"interp-throughput\",\n  \"case\": \"NVD-MT\",\n\
    \  \"n\": %d,\n  \"reps\": %d,\n  \"min_seconds\": %.1f,\n  \"rows\": [\n"
    n reps min_s;
  List.iteri
    (fun k r ->
      Printf.fprintf oc
        "    {\"version\": \"%s\", \"domains\": %d, \"path\": \"%s\", \
         \"lane_width\": %d, \"pool_domains\": %d, \"sanitize\": %b, \
         \"seconds\": %.6f, \"wi_per_sec\": %.0f}%s\n"
        (version_name r.version) r.domains r.path
        r.lane_width r.pool_domains r.sanitize r.seconds r.wi_per_sec
        (if k = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"speedup_with_lm\": %.2f,\n  \"speedup_without_lm\": %.2f,\n\
    \  \"sanitizer_overhead_with_lm\": %.2f,\n\
    \  \"sanitizer_overhead_without_lm\": %.2f,\n\
    \  \"masked_regions\": %d,\n\
    \  \"masked_case\": \"%s\",\n\
    \  \"speedup_masked_over_fiber\": %.2f,\n\
    \  \"compile_cache\": {\n\
    \    \"requests\": %d,\n\
    \    \"distinct_keys\": %d,\n\
    \    \"cold_seq_seconds\": %.6f,\n\
    \    \"cold_seq_disk_seconds\": %.6f,\n\
    \    \"cold_batch_seconds\": %.6f,\n\
    \    \"warm_mem_seconds\": %.6f,\n\
    \    \"warm_disk_seconds\": %.6f,\n\
    \    \"warm_mem_speedup\": %.1f,\n\
    \    \"warm_disk_speedup\": %.1f,\n\
    \    \"warm_mem_hit_rate\": %.3f,\n\
    \    \"warm_disk_hit_rate\": %.3f\n\
    \  }"
    sp_with sp_without ov_with ov_without mk.mk_regions mk.mk_case mk.mk_speedup
    cs.cs_requests cs.cs_distinct cs.cs_cold_seq cs.cs_cold_seq_disk cs.cs_cold_batch
    cs.cs_warm_mem cs.cs_warm_disk
    (cs.cs_cold_seq /. cs.cs_warm_mem)
    (cs.cs_cold_seq /. cs.cs_warm_disk)
    (float_of_int cs.cs_warm_mem_hits /. float_of_int cs.cs_requests)
    (float_of_int cs.cs_warm_disk_hits /. float_of_int cs.cs_distinct);
  Printf.fprintf oc
    ",\n\
    \  \"predictor_agreement\": {\n\
    \    \"scale\": %d,\n\
    \    \"cases\": %d,\n\
    \    \"agree\": %d,\n\
    \    \"rows\": [\n"
    Predictor.agreement_scale (List.length pa)
    (List.length
       (List.filter
          (fun (r : Predictor.agreement_row) ->
            r.Predictor.ag_model = r.Predictor.ag_measured)
          pa));
  List.iteri
    (fun k (r : Predictor.agreement_row) ->
      Printf.fprintf oc
        "      {\"case\": \"%s\", \"measured\": \"%s\", \"model\": \"%s\", \
         \"np_sim\": %.4f, \"np_model\": %.4f}%s\n"
        r.Predictor.ag_id r.Predictor.ag_measured r.Predictor.ag_model
        r.Predictor.ag_np_sim r.Predictor.ag_np_model
        (if k = List.length pa - 1 then "" else ","))
    pa;
  let launch_rows_json rows =
    List.iteri
      (fun k r ->
        Printf.fprintf oc
          "    {\"case\": \"%s\", \"version\": \"%s\", \"path\": \"%s\", \
           \"sanitize\": %b, \"domains\": 1, \"scale\": 1, \
           \"wi_per_sec\": %.0f, \"minor_words_per_wi\": %.1f}%s\n"
          r.ar_case (version_name r.ar_version) r.ar_path r.ar_sanitize
          r.ar_wi_per_sec r.ar_words_per_wi
          (if k = List.length rows - 1 then "" else ","))
      rows
  in
  Printf.fprintf oc "    ]\n  },\n  \"alloc_limit_words_per_wi\": %.0f,\n  \"alloc_rows\": [\n"
    alloc_limit;
  launch_rows_json alloc;
  Printf.fprintf oc "  ],\n  \"masked_region_rows\": [\n";
  launch_rows_json masked_region;
  Printf.fprintf oc
    "  ],\n\
    \  \"memsim_replay\": {\n\
    \    \"n\": %d,\n\
    \    \"core\": 0,\n\
    \    \"rounds\": %d,\n\
    \    \"rows\": [\n"
    n replay_rounds;
  List.iteri
    (fun k r ->
      Printf.fprintf oc
        "      {\"case\": \"%s\", \"version\": \"%s\", \"platform\": \"%s\", \
         \"groups\": %d, \"batches\": %d, \"lockstep_batches\": %d, \"events\": %d, \
         \"records\": %d, \"cache_words\": %d, \"eager_words\": %d, \"seconds\": %.6f, \
         \"events_per_sec\": %.0f}%s\n"
        r.rr_case (version_name r.rr_version) r.rr_platform r.rr_groups r.rr_batches r.rr_lockstep
        r.rr_events r.rr_records r.rr_cache_words r.rr_eager_words r.rr_seconds r.rr_events_per_sec
        (if k = List.length replay - 1 then "" else ","))
    replay;
  Printf.fprintf oc "    ]\n  }";
  Printf.fprintf oc
    ",\n\
    \  \"suite_launch\": {\n\
    \    \"scale\": 1,\n\
    \    \"domains\": 1,\n\
    \    \"reps\": %d,\n\
    \    \"min_seconds\": %.1f,\n\
    \    \"sum_seconds\": %.6f,\n\
    \    \"rows\": [\n"
    reps min_s (suite_launch_sum suite_launch);
  List.iteri
    (fun k r ->
      Printf.fprintf oc
        "      {\"case\": \"%s\", \"version\": \"%s\", \"path\": \"%s\", \"lanes\": %d, \
         \"seconds\": %.6f}%s\n"
        r.sl_case (version_name r.sl_version) r.sl_path r.sl_lanes r.sl_seconds
        (if k = List.length suite_launch - 1 then "" else ","))
    suite_launch;
  Printf.fprintf oc "    ]\n  }";
  Option.iter
    (fun s ->
      Printf.fprintf oc
        ",\n\
        \  \"multi_launch\": {\n\
        \    \"launches\": %d,\n\
        \    \"items\": %d,\n\
        \    \"seq_seconds\": %.6f,\n\
        \    \"queue_seconds\": %.6f,\n\
        \    \"speedup\": %.2f,\n\
        \    \"pool_domains\": %d,\n\
        \    \"clamped\": %b,\n\
        \    \"gate\": \"%s\"\n\
        \  }"
        s.ml_launches s.ml_items s.ml_seq_seconds s.ml_q_seconds s.ml_speedup
        s.ml_pool_domains s.ml_clamped s.ml_gate)
    ml;
  Printf.fprintf oc "\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_interp.json\n%!"
  end;
  if check_scaling then begin
    (* The regression gate: auto-domain parallel execution must not be
       slower than serial beyond noise (>10%) on any measured
       configuration — the exact failure mode the per-launch Domain.spawn
       runtime exhibited. *)
    let checks =
      [ ("with_lm wg-vec", H.With_lm, None);
        ("without_lm wg-vec", H.Without_lm, None);
        ("without_lm fiber", H.Without_lm, Some Runtime.Fiber) ]
    in
    (* The table rows above are measured minutes apart, so a background
       load spike on a shared machine can depress one side of a
       comparison by far more than 10%. The gate therefore re-times each
       pair with interleaved launches — serial, auto, serial, auto, ... —
       so both sides sample the same load profile, and compares best-of. *)
    let measure_pair ~version ~force_path =
      let fn, _ = H.compile_version Nvd_mt.case version in
      let compiled = Interp.prepare fn in
      let w = mk_transpose ~n in
      let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
      let time domains =
        let t0 = Unix.gettimeofday () in
        let (_ : Trace.totals) =
          Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~domains
            ?force_path ()
        in
        Unix.gettimeofday () -. t0
      in
      ignore (time 1);
      ignore (time 0);
      let best_serial = ref infinity and best_auto = ref infinity in
      for _ = 1 to reps do
        let s = time 1 in
        if s < !best_serial then best_serial := s;
        let a = time 0 in
        if a < !best_auto then best_auto := a
      done;
      let items = float_of_int (n * n) in
      (items /. !best_serial, items /. !best_auto)
    in
    let failed =
      List.filter_map
        (fun (label, version, force_path) ->
          let path = if force_path = None then "wg-vec" else "fiber" in
          let auto_row = find ~path version 0 in
          (* Three attempts: a genuine regression (the per-launch spawn
             runtime was ~2x slower) fails every one; an unlucky load
             burst does not. *)
          let rec attempt k =
            let serial, auto = measure_pair ~version ~force_path in
            if auto >= 0.9 *. serial then None
            else if k < 3 then attempt (k + 1)
            else
              Some
                (Printf.sprintf
                   "%s: domains=auto (%d pool domains) runs at %.0f wi/sec, \
                    >10%% below domains=1 at %.0f wi/sec"
                   label auto_row.pool_domains auto serial)
          in
          attempt 1)
        checks
    in
    (* The multi-launch row of the scaling check: draining the same
       launch set through the out-of-order queue must stay within noise
       of sequential submission at *any* pool width — hazard tracking,
       event plumbing and scheduler locking have to be free even when a
       single effective domain means no pipelining win is possible. *)
    let ml_pair () =
      let set = suite_pairs () in
      let pls_seq = H.prepare_launches ~jobs:2 ~scale:8 set in
      let pls_q = H.prepare_launches ~jobs:2 ~scale:8 set in
      ignore (H.run_sequential pls_seq);
      ignore (H.run_queued ~domains:0 pls_q);
      let best_s = ref infinity and best_q = ref infinity in
      for _ = 1 to reps do
        let s, _ = H.run_sequential pls_seq in
        if s < !best_s then best_s := s;
        let q, _ = H.run_queued ~domains:0 pls_q in
        if q < !best_q then best_q := q
      done;
      let items = float_of_int (H.launch_items pls_seq) in
      (items /. !best_s, items /. !best_q)
    in
    let rec ml_attempt k =
      let seq, q = ml_pair () in
      if q >= 0.9 *. seq then begin
        Printf.printf
          "scaling check multi-launch row: queued %.0f wi/sec vs sequential \
           %.0f wi/sec (%.2fx)\n%!"
          q seq (q /. seq);
        None
      end
      else if k < 3 then ml_attempt (k + 1)
      else
        Some
          (Printf.sprintf
             "multi-launch: queued submission runs at %.0f wi/sec, >10%% \
              below sequential at %.0f wi/sec"
             q seq)
    in
    match failed @ Option.to_list (ml_attempt 1) with
    | [] -> Printf.printf "scaling check: ok (auto >= 0.9x serial on all paths)\n%!"
    | msgs ->
        List.iter (Printf.eprintf "scaling check FAILED: %s\n") msgs;
        exit 1
  end
