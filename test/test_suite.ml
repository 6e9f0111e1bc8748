(* Suite-level tests: every benchmark must (a) compile, (b) be transformed
   by Grover, (c) produce host-reference-correct results both with local
   memory and after Grover disabled it, and (d) lose all local traffic when
   every candidate is removed. *)

open Grover_ocl
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit

let scale = 4 (* small datasets: tests must stay fast *)

let check_valid id = function
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" id m

(* One unsimulated execution of a version: its totals, output check and
   Grover outcome. *)
let run (case : Kit.case) v =
  let fn, outcome = H.compile_version case v in
  let totals, _, valid, _ = H.execute case fn ~scale ~platforms:[] in
  (totals, valid, outcome)

let test_case_with_lm (case : Kit.case) () =
  let totals, valid, _ = run case H.With_lm in
  check_valid (case.Kit.id ^ " (with lm)") valid;
  Alcotest.(check bool)
    (case.Kit.id ^ " uses local memory")
    true
    (totals.Trace.t_local_accesses > 0)

let test_case_without_lm (case : Kit.case) () =
  let _, valid, outcome = run case H.Without_lm in
  check_valid (case.Kit.id ^ " (grover)") valid;
  match outcome with
  | Some o ->
      Alcotest.(check bool)
        (case.Kit.id ^ " transformed something")
        true
        (o.Grover_core.Grover.transformed <> [])
  | None -> Alcotest.fail "missing outcome"

let test_full_removal_drops_local (case : Kit.case) () =
  (* When no candidate restriction applies, all local traffic must vanish. *)
  if case.Kit.remove = None then begin
    let totals, _, _ = run case H.Without_lm in
    Alcotest.(check int)
      (case.Kit.id ^ " local accesses")
      0 totals.Trace.t_local_accesses;
    Alcotest.(check int) (case.Kit.id ^ " barriers") 0 totals.Trace.t_barriers
  end

(* Round trip: IR -> emitted OpenCL C -> front-end -> execution must still
   validate against the host reference, for both kernel versions. This
   exercises the structurizer (loops, diamonds, phi destruction) on every
   benchmark. *)
let test_emit_roundtrip (case : Kit.case) (v : H.version) () =
  let fn, _ = H.compile_version case v in
  let c_src = Grover_ir.Emit_c.kernel_to_c fn in
  let fn2 =
    match Grover_ir.Lower.compile c_src with
    | [ f ] -> f
    | _ -> Alcotest.fail "emitted source must contain one kernel"
  in
  Grover_passes.Pipeline.normalize fn2;
  let w = case.Kit.mk ~scale in
  let compiled = Grover_ocl.Interp.prepare fn2 in
  ignore
    (Runtime.launch compiled
       ~cfg:{ Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
       ~args:w.Kit.args ~mem:w.Kit.mem ());
  match w.Kit.check () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s round-trip: %s" case.Kit.id m

let per_case_tests =
  List.concat_map
    (fun (case : Kit.case) ->
      [ Alcotest.test_case (case.Kit.id ^ " with-lm valid") `Quick
          (test_case_with_lm case);
        Alcotest.test_case (case.Kit.id ^ " grover valid") `Quick
          (test_case_without_lm case);
        Alcotest.test_case (case.Kit.id ^ " no local traffic") `Quick
          (test_full_removal_drops_local case);
        Alcotest.test_case (case.Kit.id ^ " C round-trip (with lm)") `Quick
          (test_emit_roundtrip case H.With_lm);
        Alcotest.test_case (case.Kit.id ^ " C round-trip (grover)") `Quick
          (test_emit_roundtrip case H.Without_lm) ])
    Grover_suite.Suite.all

(* NVD-MM partial removals must keep the *other* matrix in local memory. *)
let test_partial_removal_keeps_other () =
  let case = Grover_suite.Nvd_mm.case_a in
  let totals, valid, _ = run case H.Without_lm in
  check_valid "NVD-MM-A" valid;
  Alcotest.(check bool) "Bs still uses local memory" true
    (totals.Trace.t_local_accesses > 0);
  Alcotest.(check bool) "barriers still present" true
    (totals.Trace.t_barriers > 0)

let test_table3_indexes () =
  (* The nGL abstractions of paper Table III, on the kernels where the
     index is characteristic. *)
  let report_of (case : Kit.case) =
    let fn, outcome = H.compile_version case H.Without_lm in
    ignore fn;
    match outcome with
    | Some o -> o.Grover_core.Grover.reports
    | None -> Alcotest.fail "no outcome"
  in
  (* NVD-MT: solution must swap lx and ly. *)
  (match report_of Grover_suite.Nvd_mt.case with
  | [ e ] ->
      Alcotest.(check (list (pair string string)))
        "NVD-MT solution"
        [ ("lx'", "ly"); ("ly'", "lx") ]
        e.Grover_core.Report.solution
  | _ -> Alcotest.fail "NVD-MT: expected one report");
  (* AMD-SS: the solution maps lx to the loop variable. *)
  (match report_of Grover_suite.Amd_ss.case with
  | [ e ] -> (
      match e.Grover_core.Report.solution with
      | [ ("lx'", v) ] ->
          (* The loop counter is a phi; its display name comes from the
             per-kernel pool (i, j, k, ...). *)
          Alcotest.(check bool)
            (Printf.sprintf "AMD-SS solution %S is a loop phi" v)
            true
            (List.mem v [ "i"; "j"; "k" ])
      | s ->
          Alcotest.failf "AMD-SS: unexpected solution %s"
            (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) s)))
  | _ -> Alcotest.fail "AMD-SS: expected one report");
  (* ROD-SC: nGL must contain the strided index (solution * stride). *)
  match report_of Grover_suite.Rod_sc.case with
  | [ e ] ->
      let ngl = e.Grover_core.Report.ngl_index in
      let contains s sub =
        let n = String.length sub in
        let found = ref false in
        for i = 0 to String.length s - n do
          if String.sub s i n = sub then found := true
        done;
        !found
      in
      Alcotest.(check bool)
        (Printf.sprintf "ROD-SC nGL %S mentions stride" ngl)
        true
        (contains ngl "stride")
  | _ -> Alcotest.fail "ROD-SC: expected one report"

(* [Harness.wallclock] reports the batch width of the plan it timed: the
   work-group on the default plan (NVD-MT's 256-item groups run 256
   lanes, AMD-MT's 64-item groups 64), one lane under
   GROVER_FORCE_PATH=fiber (it takes no path of its own). *)
let test_wallclock_lane_width () =
  List.iter
    (fun ((case : Kit.case), group) ->
      List.iter
        (fun v ->
          let fn, _ = H.compile_version case v in
          let timed force =
            Test_ocl.with_force_path force (fun () ->
                let r = H.wallclock case fn ~scale:8 in
                (r.H.wc_path, r.H.wc_lane_width))
          in
          let label what = Printf.sprintf "%s %s" case.Kit.id what in
          Alcotest.(check (pair string int)) (label "unset") ("wg-vec", group)
            (timed "");
          Alcotest.(check (pair string int)) (label "fiber") ("fiber", 1)
            (timed "fiber"))
        [ H.With_lm; H.Without_lm ])
    [ (Grover_suite.Nvd_mt.case, 256); (Grover_suite.Amd_mt.case, 64) ]

let suite =
  [ ("benchmarks", per_case_tests);
    ( "benchmark-details",
      [ Alcotest.test_case "partial removal keeps other matrix" `Quick
          test_partial_removal_keeps_other;
        Alcotest.test_case "table III indexes" `Quick test_table3_indexes;
        Alcotest.test_case "wallclock reports the planned lane width" `Quick
          test_wallclock_lane_width ] ) ]
