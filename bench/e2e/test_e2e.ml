(* Tests of the benchmark itself: the statistics helpers, and parity of
   the fig10 workload with [Harness.compare], so the replica in
   workloads.ml cannot drift from the experiment it reproduces. *)

module W = Workloads
module H = Grover_suite.Harness

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let stats () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, med, q3 = Stats.quartiles xs in
  expect "quartiles 1..10" (close q1 2.75 && close med 5.5 && close q3 8.25);
  expect "median odd" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  expect "median even" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  expect "median single" (close (Stats.median [ 7.0 ]) 7.0);
  expect "percentile clamps" (close (Stats.percentile xs 99.9) 10.0);
  List.iter
    (fun (n, p) ->
      expect (Printf.sprintf "tail_percentile %d" n) (Stats.tail_percentile n = p))
    [ (10, 50.0); (39, 50.0); (40, 75.0); (100, 90.0); (199, 90.0); (200, 95.0);
      (999, 95.0); (1000, 99.0); (9999, 99.0); (10_000, 99.9) ]

let parity () =
  let ctx =
    { W.seed = 1; scale = 8; requests = 0; out = "."; attempted = 0; failed = 0; slots_ms = [] }
  in
  let rows = W.fig10_pass ctx in
  expect "fig10 replica runs cleanly" (ctx.W.failed = 0);
  expect "fig10 replica covers every comparison" (List.length rows = 36);
  List.iter
    (fun (r : W.np_row) ->
      let case = Option.get (Grover_suite.Suite.by_id r.W.case_id) in
      let platform = Option.get (Grover_memsim.Platform.by_name r.W.platform) in
      let cmp = H.compare case ~platform ~scale:8 in
      expect
        (Printf.sprintf "np parity %s/%s (%.17g vs %.17g)" r.W.case_id r.W.platform r.W.np
           cmp.H.normalized)
        (r.W.np = cmp.H.normalized))
    rows

let () =
  stats ();
  parity ();
  if !failures > 0 then exit 1;
  print_endline "bench/e2e tests: ok"
