(* Matmul variants: candidate selection (paper §V-B).

   oclMatrixMul stages both input matrices in local memory. Grover's
   candidate restriction derives the paper's three test cases from the one
   kernel: NVD-MM-A (disable the A tile), NVD-MM-B (disable the B tile) and
   NVD-MM-AB (disable both). This example shows the per-variant reports and
   compares all four versions on the SNB platform.

   Run with: dune exec examples/matmul_variants.exe *)

module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module P = Grover_memsim.Platform

let () =
  let base = Grover_suite.Nvd_mm.case_a in
  print_endline "The kernel (both matrices staged in local memory):";
  print_string base.Kit.source;
  print_newline ();
  (* Show what Grover does for each candidate selection. *)
  List.iter
    (fun (label, case) ->
      let _, outcome = H.compile_version case H.Without_lm in
      match outcome with
      | Some o ->
          Printf.printf "=== %s: transformed [%s], %d barrier(s) removed\n"
            label
            (String.concat ", " o.Grover_core.Grover.transformed)
            o.Grover_core.Grover.barriers_removed;
          List.iter
            (fun e ->
              Printf.printf "    %s: nGL = %s\n"
                e.Grover_core.Report.candidate e.Grover_core.Report.ngl_index)
            o.Grover_core.Grover.reports
      | None -> ())
    [ ("NVD-MM-A", Grover_suite.Nvd_mm.case_a);
      ("NVD-MM-B", Grover_suite.Nvd_mm.case_b);
      ("NVD-MM-AB", Grover_suite.Nvd_mm.case_ab) ];
  print_newline ();
  (* Compare the four versions on SNB. *)
  let plat = P.snb in
  Printf.printf "Simulated on %s (C slab, B row stride 4 KiB):\n" plat.P.name;
  (* Simulated seconds of one version of [case], its output validated. *)
  let seconds label case v =
    let fn, _ = H.compile_version case v in
    match H.execute case fn ~scale:2 ~platforms:[ plat ] with
    | _, [ r ], Ok (), _ -> r.Grover_memsim.Simulate.seconds
    | _, _, Error m, _ -> failwith (label ^ ": " ^ m)
    | _ -> assert false
  in
  let with_lm = seconds "with local memory" Grover_suite.Nvd_mm.case_a H.With_lm in
  Printf.printf "  %-22s %10.3f ms\n" "with local memory" (with_lm *. 1e3);
  List.iter
    (fun (label, case) ->
      let t = seconds label case H.Without_lm in
      Printf.printf "  %-22s %10.3f ms  (np %.2f)\n" label (t *. 1e3) (with_lm /. t))
    [ ("NVD-MM-A (A removed)", Grover_suite.Nvd_mm.case_a);
      ("NVD-MM-B (B removed)", Grover_suite.Nvd_mm.case_b);
      ("NVD-MM-AB (both)", Grover_suite.Nvd_mm.case_ab) ];
  print_newline ();
  print_endline
    "The column-accessed B matrix benefits from the contiguous layout of\n\
     its local tile (its 4 KiB row stride makes tile columns collide in one\n\
     L1 set), so removing only B's staging loses; removing A's is free."
