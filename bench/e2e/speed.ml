(* A speed-normalized clock for the end-to-end metrics.

   On the 2-vCPU VM this benchmark was built on, CPU speed switches
   between two levels about 1.5x apart, for periods from under a second to
   half a minute. Raw pass times then moved 20-30% between runs. So
   between operations (at most every 50 ms) a fixed probe loop is timed,
   and this clock advances at wall time scaled by [reference_ms / probe
   time], averaging the probes at both ends of each interval. On a host
   where the probe takes exactly [reference_ms] it is wall time. The
   probe's own time is not counted. Per-layer spans use wall time. *)

let reference_ms = 1.0
let interval_ns = 50_000_000L

(* About a millisecond of indirect calls: the interpreter's closure-chain
   shape, and no allocation. *)
let probe_fns = Array.init 64 (fun k x -> (x * (k + 1)) lxor (x lsr 3))

let probe_ms () : float =
  let t0 = Span.now_ns () in
  let x = ref 1 in
  for i = 1 to 300_000 do
    x := probe_fns.(i land 63) !x
  done;
  ignore (Sys.opaque_identity !x);
  Span.seconds_between t0 (Span.now_ns ()) *. 1e3

(** Pool domains the workload also computes on (the queue's drain). Each
    vCPU changes speed on its own, so the probe then runs on each of them
    at once and the clock follows their mean. *)
let pool_workers = ref 0

let probe_all_ms () : float =
  if !pool_workers = 0 then probe_ms ()
  else begin
    let others = Array.make !pool_workers 0.0 in
    Grover_ocl.Runtime.Pool.dispatch ~workers:!pool_workers (fun idx ->
        others.(idx - 1) <- probe_ms ());
    let here = probe_ms () in
    Option.iter raise (Grover_ocl.Runtime.Pool.wait ());
    Array.fold_left ( +. ) here others /. float_of_int (!pool_workers + 1)
  end

let factor = ref Float.nan
let base_ns = ref 0L
let base_s = ref 0.0

(** Seconds on the normalized clock, provisional until the next [tick]. *)
let clock () : float = !base_s +. (Span.seconds_between !base_ns (Span.now_ns ()) *. !factor)

(** Re-measure the speed if the last probe is older than 50 ms, and settle
    the interval since then at the mean of the two probes' factors. Call
    between operations only. *)
let tick () : unit =
  let now = Span.now_ns () in
  if Int64.sub now !base_ns >= interval_ns then begin
    let f = reference_ms /. Span.wrap "bench.probe" probe_all_ms in
    if not (Float.is_nan !factor) then
      base_s := !base_s +. (Span.seconds_between !base_ns now *. ((!factor +. f) /. 2.0));
    factor := f;
    base_ns := Span.now_ns ()
  end
