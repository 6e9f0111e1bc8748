(* One workload in this process: set up, one untimed warm-up pass, timed
   passes, then (when tracing) traced passes. Results go to stdout as
   lines the parent process reads:

     ready <start ns> <seconds>    set-up finished, first timed pass next:
                                   when this process started (monotonic
                                   clock) and how long set-up took since
                                   (normalized clock, see speed.ml)
     metric <name> <value> <unit>  a metric of the JSON result
     note <name> <value> <unit>    printed only
     result <attempted> <failed> *)

module W = Workloads

type opts = {
  workload : W.workload;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** scale 8, one pass each, a few compile requests *)
  probe : bool;  (** stop after set-up: one more set-up time sample *)
  out : string;
}

let unaccounted_limit = 0.10

let layers =
  [ "clc"; "passes"; "core"; "promote"; "analysis"; "interp"; "runtime"; "queue"; "memsim";
    "suite"; "cache"; "bench" ]

let paths = [ "wg-vec"; "wg-loop"; "fiberless"; "fiber" ]

let vm_hwm_mb () : float =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      go ())

(** Per-pass layer metrics from the spans, counters and samples of
    [n_traced] traced passes. *)
let layer_metrics ~(n_traced : int) (spans : Span.t list) : (string * float * string) list =
  (* Only what happens inside the passes. *)
  let spans = List.filter (fun (s : Span.t) -> s.Span.parent >= 0 || s.Span.name = "pass") spans in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace by_id s.Span.id s) spans;
  let rec under_layer l (s : Span.t) =
    s.Span.parent >= 0
    &&
    let p = Hashtbl.find by_id s.Span.parent in
    Span.layer p.Span.name = l || under_layer l p
  in
  let tbl = Hashtbl.create 128 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0) in
  List.iter
    (fun ((s : Span.t), self) ->
      let l = Span.layer s.Span.name and d = Span.duration s in
      add ("busy:" ^ s.Span.name) d;
      add ("self:" ^ s.Span.name) self;
      if s.Span.name = "runtime.launch" then add ("exec:" ^ s.Span.tag) self;
      if List.mem l layers then begin
        add (l ^ ".self_s") self;
        if not (under_layer l s) then begin
          add (l ^ ".busy_s") d;
          add (l ^ ".calls") 1.0
        end
      end)
    (Span.self_times spans);
  let get k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  let cnt k = Option.value (Hashtbl.find_opt Span.counters k) ~default:0.0 in
  let pct k p = match Hashtbl.find_opt Span.samples k with Some l -> Stats.percentile l p | None -> 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let per_pass x = x /. float_of_int n_traced in
  let pass_total = get "busy:pass" in
  let exec_self = get "self:runtime.launch" +. get "self:queue.finish" in
  let items p = cnt ("runtime.items." ^ p) in
  let hits = cnt "cache.mem_hits" +. cnt "cache.disk_hits" in
  List.concat_map
    (fun l ->
      [ (l ^ ".busy_s", per_pass (get (l ^ ".busy_s")), "s");
        (l ^ ".self_s", per_pass (get (l ^ ".self_s")), "s");
        (l ^ ".share", ratio (get (l ^ ".self_s")) pass_total, "ratio");
        (l ^ ".calls", per_pass (get (l ^ ".calls")), "count") ])
    layers
  @ [ ("memsim.consume_busy_s", per_pass (get "busy:memsim.consume"), "s");
      ("memsim.events", per_pass (cnt "memsim.events"), "count");
      ("memsim.events_per_s", ratio (cnt "memsim.events") (get "busy:memsim.consume"), "1/s");
      ("memsim.groups", per_pass (cnt "memsim.groups"), "count");
      ("memsim.predict_busy_s", per_pass (get "busy:memsim.predict"), "s");
      ("runtime.exec_self_s", per_pass exec_self, "s");
      ("runtime.plan_busy_s", per_pass (get "busy:runtime.plan"), "s");
      ("runtime.sanitized_busy_s", per_pass (get "busy:runtime.sanitized"), "s");
      ("runtime.wi_per_s", ratio (List.fold_left (fun a p -> a +. items p) 0.0 paths) exec_self, "1/s") ]
  @ List.concat_map
      (fun p ->
        [ ("runtime.items." ^ p, per_pass (items p), "count");
          ("runtime.wi_per_s." ^ p, ratio (items p) (get ("exec:" ^ p)), "1/s") ])
      paths
  @ [ ("queue.enqueue_busy_s", per_pass (get "busy:queue.enqueue"), "s");
      ("queue.finish_busy_s", per_pass (get "busy:queue.finish"), "s");
      ("queue.launch_ms_p50", pct "queue.launch_ms" 50.0, "ms");
      ("queue.launch_ms_p99", pct "queue.launch_ms" 99.0, "ms");
      ("queue.dep_wait_ms_p50", pct "queue.dep_wait_ms" 50.0, "ms");
      ("passes.instrs_after", per_pass (cnt "passes.instrs_after"), "count");
      ("core.transformed", per_pass (cnt "core.transformed"), "count");
      ("cache.mem_hits", per_pass (cnt "cache.mem_hits"), "count");
      ("cache.disk_hits", per_pass (cnt "cache.disk_hits"), "count");
      ("cache.misses", per_pass (cnt "cache.misses"), "count");
      ("cache.hit_ratio", ratio hits (hits +. cnt "cache.misses"), "ratio");
      ("cache.mem_hit_us_p50", pct "cache.mem_hit_us" 50.0, "us");
      ("cache.disk_hit_ms_p50", pct "cache.disk_hit_ms" 50.0, "ms");
      ("cache.miss_ms_p50", pct "cache.miss_ms" 50.0, "ms");
      ("promote.promoted", per_pass (cnt "promote.promoted"), "count");
      ("suite.mk_busy_s", per_pass (get "busy:suite.mk"), "s");
      ("suite.check_busy_s", per_pass (get "busy:suite.check"), "s");
      ( "unaccounted_share",
        1.0 -. ratio (List.fold_left (fun a l -> a +. get (l ^ ".self_s")) 0.0 layers) pass_total,
        "ratio" ) ]

type pass = {
  seconds : float;
  slots : (int * float) list;  (** (request id, ms); one slot for the whole pass on stream *)
  minor_words : float;
  major_collections : float;
}

(* A pass estimate robust to a burst of host noise within a run: each
   operation at its median over the timed passes, summed. A workload that
   submits its pass as one batch has one slot, the pass. *)
let slot_median_sum (passes : pass list) : float =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      List.iter
        (fun (k, ms) -> Hashtbl.replace tbl k (ms :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
        p.slots)
    passes;
  Hashtbl.fold (fun _ l acc -> acc +. Stats.median l) tbl 0.0 /. 1e3

let run (o : opts) : int =
  let ctx =
    {
      W.seed = o.seed;
      scale = (if o.smoke then 8 else 1);
      requests = (if o.smoke then 300 else 3000);
      out = o.out;
      attempted = 0;
      failed = 0;
      slots_ms = [];
    }
  in
  let emit kind name v unit = Printf.printf "%s %s %.17g %s\n" kind name v unit in
  let start_ns = Span.now_ns () in
  if o.workload.W.on_pool then
    Speed.pool_workers := Grover_ocl.Runtime.effective_domain_cap () - 1;
  Speed.tick ();
  let start = Speed.clock () in
  let hooks = o.workload.W.setup ctx in
  let one_pass p =
    hooks.W.before ();
    Span.pass := p;
    ctx.W.slots_ms <- [];
    let g0 = Gc.quick_stat () in
    Speed.tick ();
    let t0 = Speed.clock () in
    Span.wrap "pass" hooks.W.pass;
    Speed.tick ();
    let dt = Speed.clock () -. t0 in
    let g1 = Gc.quick_stat () in
    {
      seconds = dt;
      slots = (match ctx.W.slots_ms with [] -> [ (0, dt *. 1e3) ] | l -> l);
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
    }
  in
  ignore (one_pass 0);
  Speed.tick ();
  Printf.printf "ready %Ld %.17g\n%!" start_ns (Speed.clock () -. start);
  if not o.probe then begin
    let min_passes = if o.smoke then 1 else 3 in
    let timed_start = Span.now_ns () in
    (* Peak memory after a fixed amount of work: set-up, the warm-up pass
       and [min_passes] timed passes, however many passes the run makes. *)
    let rss = ref Float.nan in
    let rec timed acc =
      let n = List.length acc in
      if n = min_passes then rss := vm_hwm_mb ();
      if n >= min_passes && Span.seconds_between timed_start (Span.now_ns ()) >= o.seconds
      then List.rev acc
      else timed (one_pass (n + 1) :: acc)
    in
    let timed = timed [] in
    let q1, med, q3 = Stats.quartiles (List.map (fun p -> p.seconds) timed) in
    let pass_s = slot_median_sum timed in
    let lat = List.concat_map (fun p -> List.map snd p.slots) timed in
    let tail = Stats.tail_percentile (min_passes * List.length (List.hd timed).slots) in
    let mean f = List.fold_left (fun a p -> a +. f p) 0.0 timed /. float_of_int (List.length timed) in
    let gc =
      [ ("gc.minor_words", mean (fun p -> p.minor_words), "words");
        ("gc.major_collections", mean (fun p -> p.major_collections), "count") ]
    in
    let e2e = [ ("pass_s", pass_s, "s") ] in
    let notes =
      [ ("pass_s.median", med, "s"); ("pass_s.q1", q1, "s"); ("pass_s.q3", q3, "s");
        ("passes", float_of_int (List.length timed), "count");
        ("op_ms_p50", Stats.median lat, "ms"); ("op_ms_tail", Stats.percentile lat tail, "ms");
        ("op_tail_pct", tail, "percentile"); ("ops", float_of_int (List.length lat), "count") ]
    in
    let traced =
      if not o.trace then []
      else begin
        Span.enabled := true;
        let n_traced = if o.smoke then 1 else 2 in
        let passes = List.init n_traced (fun i -> one_pass (1001 + i)) in
        Span.enabled := false;
        let spans = !Span.closed in
        let file = Filename.concat o.out (o.workload.W.name ^ ".trace.json") in
        Out_channel.with_open_text file (fun oc -> output_string oc (Span.chrome_json spans));
        ctx.W.attempted <- ctx.W.attempted + 1;
        (match Span.validate_chrome (In_channel.with_open_text file In_channel.input_all) with
        | Ok _ -> ()
        | Error m -> W.fail ctx "%s: %s" file m);
        let m = layer_metrics ~n_traced spans in
        let unaccounted = List.fold_left (fun a (k, v, _) -> if k = "unaccounted_share" then v else a) 0.0 m in
        ctx.W.attempted <- ctx.W.attempted + 1;
        if unaccounted >= unaccounted_limit then
          W.fail ctx "%s: unaccounted share %.3f >= %.2f" o.workload.W.name unaccounted unaccounted_limit;
        m @ gc @ [ ("trace_overhead", (slot_median_sum passes /. pass_s) -. 1.0, "ratio") ]
      end
    in
    let rss = ("peak_rss_mb", !rss, "MB") in
    if o.trace then begin
      List.iter (fun (k, v, u) -> emit "metric" k v u) traced;
      List.iter (fun (k, v, u) -> emit "note" k v u) (rss :: e2e @ notes)
    end
    else begin
      List.iter (fun (k, v, u) -> emit "metric" k v u) (rss :: e2e);
      List.iter (fun (k, v, u) -> emit "note" k v u) (notes @ gc)
    end
  end;
  hooks.W.finish ();
  Printf.printf "result %d %d\n%!" ctx.W.attempted ctx.W.failed;
  if ctx.W.failed = 0 then 0 else 1
