(* Ablation studies for the design choices DESIGN.md calls out: each
   ablation switches one mechanism off and shows which experimental shape it
   is responsible for. *)

module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module P = Grover_memsim.Platform

(* np of [case] on the [baseline] and the [ablated] platform, both simulated
   from one execution per version. *)
let np_pair case ~baseline ~ablated ~scale =
  match H.compare_all case ~platforms:[ baseline; ablated ] ~scale with
  | [ b; a ] -> (b.H.normalized, a.H.normalized)
  | _ -> assert false

let np_forced case platform ~scale ~vectorized =
  (H.compare ~vectorized_override:vectorized case ~platform ~scale).H.normalized

let row label (a, b) = Printf.printf "  %-42s %8.2f %10.2f\n" label a b

(* 1. Barrier cost: how much of the CPU-side gain is barrier removal? *)
let barrier_cost ~scale () =
  Exp.header "Ablation 1: CPU barrier cost (NVD-MT normalized perf on SNB)";
  let free_barriers =
    {
      P.snb with
      P.name = "SNB-nobarrier";
      P.costs =
        { P.snb.P.costs with P.c_barrier_wi = 0.0; c_barrier_round = 0.0 };
    }
  in
  Printf.printf "  %-42s %8s %10s\n" "" "baseline" "ablated";
  row "barrier cost zeroed"
    (np_pair Grover_suite.Nvd_mt.case ~baseline:P.snb ~ablated:free_barriers ~scale);
  print_endline
    "  (if np drops toward 1, the measured gain is driven by the barrier\n\
    \   and work-item loop-fission overhead the transformation removes)"

(* 2. Implicit work-item vectorisation: responsible for absorbing the
   column-access penalty of NVD-MM-B. *)
let simd_coalescing ~scale () =
  Exp.header
    "Ablation 2: CPU SIMD lane coalescing (NVD-MM-B normalized perf on SNB)";
  Printf.printf "  %-42s %8s %10s\n" "" "baseline" "ablated";
  row "lane coalescing disabled (scalar work-items)"
    ( np_forced Grover_suite.Nvd_mm.case_b P.snb ~scale ~vectorized:false,
      np_forced Grover_suite.Nvd_mm.case_b P.snb ~scale ~vectorized:true );
  print_endline
    "  (without 8-wide lane execution every work-item pays the strided\n\
    \   column walk individually: the loss deepens sharply)"

(* 3. Tahiti's global-load L1: why Tahiti tolerates removal better than
   Fermi/Kepler. *)
let tahiti_l1 ~scale () =
  Exp.header "Ablation 3: Tahiti per-CU global L1 (NVD-MM-A normalized perf)";
  let no_l1 =
    match P.tahiti.P.mem with
    | P.Gpu_mem g ->
        { P.tahiti with P.name = "Tahiti-noL1"; P.mem = P.Gpu_mem { g with P.l1g = None } }
    | _ -> assert false
  in
  Printf.printf "  %-42s %8s %10s\n" "" "baseline" "ablated";
  row "global-load L1 removed"
    (np_pair Grover_suite.Nvd_mm.case_a ~baseline:P.tahiti ~ablated:no_l1 ~scale);
  print_endline
    "  (without the L1, every de-staged broadcast load becomes a full\n\
    \   memory transaction, as on Fermi/Kepler: removal turns into a loss)"

(* 4. MIC's distributed last-level cache: the paper's §VI-C explanation for
   MIC's flat profile. Counterfactually give MIC a small shared LLC and a
   small per-core L2. *)
let mic_llc ~scale () =
  Exp.header
    "Ablation 4: MIC distributed LLC (NVD-MM-B normalized perf on MIC)";
  let unified =
    match P.mic.P.mem with
    | P.Cpu_mem m ->
        {
          P.mic with
          P.name = "MIC-unifiedLLC";
          P.mem =
            P.Cpu_mem
              {
                m with
                P.l2 =
                  Some
                    { Grover_memsim.Cache.size_bytes = 128 * 1024;
                      line_bytes = 64; ways = 8; latency = 12 };
                llc =
                  Some
                    { Grover_memsim.Cache.size_bytes = 8 * 1024 * 1024;
                      line_bytes = 64; ways = 16; latency = 60 };
              };
        }
    | _ -> assert false
  in
  Printf.printf "  %-42s %8s %10s\n" "" "baseline" "ablated";
  row "large per-core L2 replaced by shared LLC"
    (np_pair Grover_suite.Nvd_mm.case_b ~baseline:P.mic ~ablated:unified ~scale);
  print_endline
    "  (the paper credits MIC's per-core 512K L2 for its flat profile:\n\
    \   shrinking it moves MIC toward the SNB/Nehalem behaviour)"

let all ~scale () =
  barrier_cost ~scale ();
  simd_coalescing ~scale ();
  tahiti_l1 ~scale ();
  mic_llc ~scale ()
