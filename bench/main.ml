(* The benchmark harness: regenerates every table and figure of the paper
   (Table I-IV, Fig. 1/2/9/10) on the simulated platforms, plus Bechamel
   micro-benchmarks of the Grover pass itself.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig10   -- one experiment
     dune exec bench/main.exe -- --scale 2 fig2
*)

module H = Grover_suite.Harness
module Kit = Grover_suite.Kit

(* -- Bechamel micro-benchmarks: the cost of the pass ------------------------- *)

let micro () =
  Exp.header
    "Micro-benchmarks (Bechamel): compile + Grover transformation cost per \
     kernel";
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map
      (fun (c : Kit.case) ->
        Test.make ~name:c.Kit.id
          (Staged.stage (fun () ->
               ignore (H.compile_version c H.Without_lm))))
      Grover_suite.Suite.distinct_sources
  in
  let test = Test.make_grouped ~name:"grover-pass" tests in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-24s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-24s (no estimate)\n" name)
    results

(* -- Dispatch ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--scale N] [--quick] [--check-scaling] [--multi-launch] \
     [EXPERIMENT...]\n\
     \  --scale N  problem-size divisor, an integer >= 1 (default 1)\n\
     \  EXPERIMENT: table1 table2 fig1 fig9 table3 fig2 fig10 table4 micro perf \
     ablation predictor (default: all)";
  exit 2

let () =
  let scale = ref 1 in
  let quick = ref false in
  let check_scaling = ref false in
  let multi_launch = ref false in
  let todo = ref [] in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 -> scale := n
        | _ ->
            Printf.eprintf "invalid --scale %S (want an integer >= 1)\n" v;
            usage ());
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--check-scaling" :: rest ->
        check_scaling := true;
        parse rest
    | "--multi-launch" :: rest ->
        multi_launch := true;
        parse rest
    | x :: rest ->
        todo := x :: !todo;
        parse rest
  in
  parse args;
  let todo = List.rev !todo in
  let scale = !scale in
  let quick = !quick in
  let check_scaling = !check_scaling in
  let multi_launch = !multi_launch in
  let run_one = function
    | "table1" -> Exp.table1 ()
    | "table2" -> Exp.table2 ()
    | "fig1" -> Exp.fig1 ()
    | "fig9" -> Exp.fig9 ()
    | "table3" -> Exp.table3 ()
    | "fig2" -> ignore (Exp.fig2 ~scale ())
    | "fig10" -> ignore (Exp.fig10 ~scale ())
    | "table4" -> Exp.table4 ~scale ()
    | "micro" -> micro ()
    | "perf" -> Perf.run ~quick ~check_scaling ~multi_launch ()
    | "ablation" -> Ablation.all ~scale ()
    | "predictor" -> Predictor.run ~scale ()
    | other ->
        Printf.eprintf "unknown experiment %s\n" other;
        usage ()
  in
  match todo with
  | [] ->
      Exp.table1 ();
      Exp.table2 ();
      Exp.fig1 ();
      Exp.fig9 ();
      Exp.table3 ();
      ignore (Exp.fig2 ~scale ());
      let cmps = Exp.fig10 ~scale () in
      Exp.table4 ~cmps ~scale ();
      Ablation.all ~scale ();
      Predictor.run ~scale ();
      Perf.run ~quick ~check_scaling ~multi_launch ();
      micro ()
  | l -> List.iter run_one l
