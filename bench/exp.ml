(* Experiment drivers shared by the bench subcommands: runs the paper's
   figures and tables on the simulated platforms and prints them in the
   paper's shape. *)

module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module P = Grover_memsim.Platform
module Cache = Grover_cache.Compile_cache

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* -- Table I: benchmarks and datasets -------------------------------------- *)

let table1 () =
  header "Table I: Selected benchmarks";
  Printf.printf "%-11s %-28s %s\n" "ID" "Origin" "Dataset";
  List.iter
    (fun (c : Kit.case) ->
      Printf.printf "%-11s %-28s %s\n" c.Kit.id c.Kit.origin c.Kit.dataset)
    Grover_suite.Suite.all

(* -- Table II: platforms ----------------------------------------------------- *)

let table2 () =
  header "Table II: The six simulated platforms";
  Printf.printf "%-9s %-5s %6s %8s %6s %6s  %s\n" "Name" "Kind" "Cores"
    "GHz" "SIMD" "Warp" "Memory model";
  List.iter
    (fun (p : P.t) ->
      let kind =
        match p.P.kind with P.Cpu -> "CPU" | P.Gpu -> "GPU" | P.Mic -> "MIC"
      in
      let mem_desc =
        match p.P.mem with
        | P.Cpu_mem m ->
            Printf.sprintf "L1 %dK%s%s"
              (m.P.l1.Grover_memsim.Cache.size_bytes / 1024)
              (match m.P.l2 with
              | Some c ->
                  Printf.sprintf ", L2 %dK" (c.Grover_memsim.Cache.size_bytes / 1024)
              | None -> "")
              (match m.P.llc with
              | Some c ->
                  Printf.sprintf ", shared LLC %dM"
                    (c.Grover_memsim.Cache.size_bytes / 1024 / 1024)
              | None -> ", distributed LLC (per-core L2 only)")
        | P.Gpu_mem g ->
            Printf.sprintf "SPM (%d banks), %dB segments%s" g.P.banks g.P.segment
              (match g.P.l2g with
              | Some c ->
                  Printf.sprintf ", L2 %dK" (c.Grover_memsim.Cache.size_bytes / 1024)
              | None -> "")
      in
      Printf.printf "%-9s %-5s %6d %8.2f %6d %6d  %s\n" p.P.name kind p.P.cores
        p.P.freq_ghz p.P.simd p.P.warp mem_desc)
    P.all

(* -- Fig. 1 / Fig. 9: the transformation pipeline on NVD-MT ----------------- *)

let fig1 () =
  header "Fig. 1: Removing local memory usage on Matrix Transpose";
  let case = Grover_suite.Nvd_mt.case in
  print_string case.Kit.source;
  let fn, outcome = H.compile_version case H.Without_lm in
  (match outcome with
  | Some o ->
      List.iter
        (fun e -> print_endline (Grover_core.Report.to_string e))
        o.Grover_core.Grover.reports
  | None -> ());
  print_endline "\nTransformed kernel (local memory disabled):";
  print_string (Grover_ir.Printer.func_to_string fn)

let fig9 () =
  header "Fig. 9: The compilation pipeline";
  let case = Grover_suite.Nvd_mt.case in
  Printf.printf
    "OpenCL C (%d bytes)\n  |> front-end (lex/parse/sema)\n  |> SSA IR \
     lowering\n  |> normalisation (canon, gid expansion, mem2reg, simplify, \
     DCE)\n  |> GROVER (candidate selection, index analysis, linear solve, \
     rewrite)\n  |> cleanup (DCE, barrier removal)\n  |> execution engine / \
     simulated platforms\n"
    (String.length case.Kit.source);
  let build variant =
    (Cache.build_artifact (Cache.request ~variant case.Kit.source))
      .Cache.art_kernels
  in
  List.iter2
    (fun (w : Cache.kernel_art) (wo : Cache.kernel_art) ->
      Printf.printf
        "kernel %s: %d instructions with local memory -> %d without; \
         transformed=[%s]\n"
        w.Cache.ka_name w.Cache.ka_after wo.Cache.ka_after
        (String.concat ";"
           (Option.get wo.Cache.ka_outcome).Grover_core.Grover.transformed))
    (build Cache.With_lm)
    (build (Cache.Without_lm None))

(* -- Table III: data indexes -------------------------------------------------- *)

let table3 () =
  header "Table III: Determining the data index of nGL";
  List.iter
    (fun (c : Kit.case) ->
      match H.compile_version c H.Without_lm with
      | _, Some o ->
          List.iter
            (fun (e : Grover_core.Report.entry) ->
              Printf.printf "%-11s %-4s LS=%-18s LL=%-18s\n%11s nGL=%s\n" c.Kit.id
                e.Grover_core.Report.candidate
                (Grover_core.Report.dims_to_string e.Grover_core.Report.ls_index)
                (Grover_core.Report.dims_to_string e.Grover_core.Report.ll_index)
                ""
                e.Grover_core.Report.ngl_index)
            o.Grover_core.Grover.reports
      | _, None -> Printf.printf "%-11s (not transformed)\n" c.Kit.id)
    Grover_suite.Suite.all

(* -- Fig. 2 / Fig. 10: normalized performance --------------------------------- *)

let bar np =
  let n = int_of_float (np *. 20.0 +. 0.5) in
  String.make (min n 60) '#'

(* Each case runs once per version for all platforms; the comparisons come
   back platform-major, each platform's in [cases] order. *)
let run_cases ~(platforms : P.t list) ~(cases : Kit.case list) ~(scale : int) :
    H.comparison list =
  let per_case = List.map (fun c -> H.compare_all c ~platforms ~scale) cases in
  List.concat
    (List.mapi
       (fun i (p : P.t) ->
         List.map
           (fun cmps ->
             let cmp = List.nth cmps i in
             (match cmp.H.with_lm.H.valid with
             | Error m ->
                 Printf.printf "!! %s/%s with-lm INVALID: %s\n" cmp.H.case_id p.P.name m
             | Ok () -> ());
             (match cmp.H.without_lm.H.valid with
             | Error m ->
                 Printf.printf "!! %s/%s grover INVALID: %s\n" cmp.H.case_id p.P.name m
             | Ok () -> ());
             cmp)
           per_case)
       platforms)

let print_np (cmps : H.comparison list) =
  Printf.printf "%-11s %-9s %10s %10s %8s  %-7s %s\n" "Benchmark" "Platform"
    "t_with(ms)" "t_wout(ms)" "np" "verdict" "";
  List.iter
    (fun (c : H.comparison) ->
      Printf.printf "%-11s %-9s %10.3f %10.3f %8.2f  %-7s %s\n" c.H.case_id
        c.H.platform
        (c.H.with_lm.H.seconds *. 1e3)
        (c.H.without_lm.H.seconds *. 1e3)
        c.H.normalized
        (H.verdict_name (H.classify c.H.normalized))
        (bar c.H.normalized))
    cmps

let fig2 ~scale () =
  header
    "Fig. 2: Performance impact of removing local memory on MT and MM (6 \
     platforms; np > 1 means removal wins)";
  let cases = [ Grover_suite.Nvd_mt.case; Grover_suite.Nvd_mm.case_a ] in
  let cmps = run_cases ~platforms:P.all ~cases ~scale in
  print_np cmps;
  cmps

let fig10 ~scale () =
  header
    "Fig. 10: Normalized performance after disabling local memory (SNB, \
     Nehalem, MIC)";
  let cmps =
    run_cases ~platforms:P.cache_only ~cases:Grover_suite.Suite.all ~scale
  in
  print_np cmps;
  cmps

(* -- Table IV: the gain/loss distribution -------------------------------------- *)

let table4 ?(cmps : H.comparison list option) ~scale () =
  let cmps =
    match cmps with Some c -> c | None -> fig10 ~scale ()
  in
  header "Table IV: Performance gain/loss distribution (5% threshold)";
  let count p v =
    List.length
      (List.filter
         (fun (c : H.comparison) ->
           c.H.platform = p && H.classify c.H.normalized = v)
         cmps)
  in
  let platforms = [ "SNB"; "Nehalem"; "MIC" ] in
  Printf.printf "%-9s %s  Total (%%)\n" ""
    (String.concat "  " (List.map (Printf.sprintf "%-8s") platforms));
  let total = List.length cmps in
  List.iter
    (fun v ->
      let per = List.map (fun p -> count p v) platforms in
      let sum = List.fold_left ( + ) 0 per in
      Printf.printf "%-9s %s  %d (%d%%)\n"
        (String.capitalize_ascii (H.verdict_name v))
        (String.concat "  " (List.map (Printf.sprintf "%-8d") per))
        sum
        (if total = 0 then 0 else 100 * sum / total))
    [ H.Gain; H.Loss; H.Similar ]
