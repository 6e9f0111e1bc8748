(* Execution-engine tests: interpreter correctness, barrier semantics, and
   semantic equivalence of kernels before/after Grover. *)

open Grover_ir
open Grover_ocl

let mt_source =
  {|
#define S 8
__kernel void transpose(__global float *out, __global const float *in,
                        int W, int H) {
  __local float lm[S][S];
  int lx = get_local_id(0);
  int ly = get_local_id(1);
  int wx = get_group_id(0);
  int wy = get_group_id(1);
  lm[ly][lx] = in[(wx * S + ly) * W + (wy * S + lx)];
  barrier(CLK_LOCAL_MEM_FENCE);
  float val = lm[lx][ly];
  int gx = get_global_id(0);
  int gy = get_global_id(1);
  out[gy * H + gx] = val;
}
|}

let launch_1d c mem args ~n ~wg =
  Runtime.launch c
    ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
    ~args ~mem ()

(* -- Basic kernels -------------------------------------------------------- *)

let test_vector_add () =
  let src =
    "__kernel void vadd(__global float *c, __global const float *a, __global const float *b) { int i = get_global_id(0); c[i] = a[i] + b[i]; }"
  in
  let c = Runtime.compile_kernel src ~name:"vadd" in
  let mem = Memory.create () in
  let n = 64 in
  let bc = Memory.alloc mem Ssa.F32 n in
  let ba = Memory.alloc mem Ssa.F32 n in
  let bb = Memory.alloc mem Ssa.F32 n in
  Memory.fill_floats ba (fun i -> float_of_int i);
  Memory.fill_floats bb (fun i -> float_of_int (2 * i));
  ignore (launch_1d c mem [ Runtime.Abuf bc; Runtime.Abuf ba; Runtime.Abuf bb ] ~n ~wg:16);
  let out = Memory.to_float_array bc in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "c[%d]" i) (float_of_int (3 * i)) v)
    out

let test_loop_sum () =
  let src =
    "__kernel void s(__global int *out, __global const int *a, int n) { int acc = 0; for (int i = 0; i < n; i++) acc += a[i]; out[get_global_id(0)] = acc; }"
  in
  let c = Runtime.compile_kernel src ~name:"s" in
  let mem = Memory.create () in
  let n = 10 in
  let out = Memory.alloc mem Ssa.I32 1 in
  let a = Memory.alloc mem Ssa.I32 n in
  Memory.fill_ints a (fun i -> i + 1);
  ignore
    (launch_1d c mem [ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ] ~n:1 ~wg:1);
  Alcotest.(check int) "sum 1..10" 55 (Memory.to_int_array out).(0)

let test_conditional () =
  let src =
    "__kernel void f(__global int *out) { int i = get_global_id(0); if (i % 2 == 0) out[i] = i; else out[i] = -i; }"
  in
  let c = Runtime.compile_kernel src ~name:"f" in
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.I32 16 in
  ignore (launch_1d c mem [ Runtime.Abuf out ] ~n:16 ~wg:4);
  Array.iteri
    (fun i v ->
      Alcotest.(check int) (Printf.sprintf "out[%d]" i)
        (if i mod 2 = 0 then i else -i)
        v)
    (Memory.to_int_array out)

let test_vector_types () =
  let src =
    "__kernel void f(__global float4 *out, __global const float4 *a) { int i = get_global_id(0); float4 v = a[i]; out[i] = v * v; }"
  in
  let c = Runtime.compile_kernel src ~name:"f" in
  let mem = Memory.create () in
  let out = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) 4 in
  let a = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) 4 in
  Memory.fill_floats a (fun i -> float_of_int i);
  ignore (launch_1d c mem [ Runtime.Abuf out; Runtime.Abuf a ] ~n:4 ~wg:2);
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "lane %d" i)
        (float_of_int (i * i))
        v)
    (Memory.to_float_array out)

let test_math_builtins () =
  let src =
    "__kernel void f(__global float *out, __global const float *a) { int i = get_global_id(0); out[i] = sqrt(a[i]) + rsqrt(a[i]) + fabs(-a[i]); }"
  in
  let c = Runtime.compile_kernel src ~name:"f" in
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.F32 4 in
  let a = Memory.alloc mem Ssa.F32 4 in
  Memory.fill_floats a (fun i -> float_of_int (i + 1));
  ignore (launch_1d c mem [ Runtime.Abuf out; Runtime.Abuf a ] ~n:4 ~wg:4);
  Array.iteri
    (fun i v ->
      let x = float_of_int (i + 1) in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "out[%d]" i)
        (sqrt x +. (1.0 /. sqrt x) +. x)
        v)
    (Memory.to_float_array out)

(* -- Barrier semantics ------------------------------------------------------ *)

let test_barrier_reversal () =
  (* Work-items stage their id, then read their neighbour's slot: correct
     only if the barrier actually synchronises the group. *)
  let src =
    {|__kernel void rev(__global int *out) {
        __local int tmp[16];
        int l = get_local_id(0);
        int n = get_local_size(0);
        tmp[l] = l;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[get_global_id(0)] = tmp[n - 1 - l];
      }|}
  in
  let c = Runtime.compile_kernel src ~name:"rev" in
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.I32 32 in
  ignore (launch_1d c mem [ Runtime.Abuf out ] ~n:32 ~wg:16);
  Array.iteri
    (fun i v ->
      (* tmp holds local ids, so the reversal yields 15 - (i mod 16). *)
      Alcotest.(check int) (Printf.sprintf "out[%d]" i) (15 - (i mod 16)) v)
    (Memory.to_int_array out)

let test_barrier_rounds_counted () =
  let src =
    {|__kernel void f(__global int *out) {
        __local int tmp[4];
        tmp[get_local_id(0)] = 1;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[get_global_id(0)] = tmp[0];
        barrier(CLK_LOCAL_MEM_FENCE);
      }|}
  in
  let c = Runtime.compile_kernel src ~name:"f" in
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.I32 4 in
  let rounds = ref 0 in
  ignore
    (Runtime.launch c
       ~cfg:{ Runtime.global = (4, 1, 1); local = (4, 1, 1); queues = 1 }
       ~args:[ Runtime.Abuf out ] ~mem
       ~on_group:(fun s -> rounds := s.Trace.barrier_rounds)
       ());
  Alcotest.(check int) "two barrier rounds" 2 !rounds

(* -- Transpose: with local memory, and after Grover -------------------------- *)

let run_transpose fn_compiled n =
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.F32 (n * n) in
  let inp = Memory.alloc mem Ssa.F32 (n * n) in
  Memory.fill_floats inp (fun i -> float_of_int i +. 0.25);
  ignore
    (Runtime.launch fn_compiled
       ~cfg:{ Runtime.global = (n, n, 1); local = (8, 8, 1); queues = 1 }
       ~args:
         [ Runtime.Abuf out; Runtime.Abuf inp; Runtime.Aint n; Runtime.Aint n ]
       ~mem ());
  (Memory.to_float_array inp, Memory.to_float_array out)

let test_transpose_with_local () =
  let c = Runtime.compile_kernel mt_source ~name:"transpose" in
  let n = 32 in
  let inp, out = run_transpose c n in
  for r = 0 to n - 1 do
    for cl = 0 to n - 1 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "out[%d][%d]" r cl)
        inp.((cl * n) + r)
        out.((r * n) + cl)
    done
  done

let test_transpose_grover_equivalent () =
  (* Run the same kernel after Grover removed local memory: bit-identical. *)
  let fn =
    match Lower.compile mt_source with [ f ] -> f | _ -> assert false
  in
  Grover_passes.Pipeline.normalize fn;
  let outcome = Grover_core.Grover.run fn in
  Alcotest.(check (list string)) "lm transformed" [ "lm" ]
    outcome.Grover_core.Grover.transformed;
  let c = Interp.prepare fn in
  let n = 32 in
  let inp, out = run_transpose c n in
  for r = 0 to n - 1 do
    for cl = 0 to n - 1 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "out[%d][%d]" r cl)
        inp.((cl * n) + r)
        out.((r * n) + cl)
    done
  done

let test_transpose_grover_no_local_traffic () =
  let fn =
    match Lower.compile mt_source with [ f ] -> f | _ -> assert false
  in
  Grover_passes.Pipeline.normalize fn;
  ignore (Grover_core.Grover.run fn);
  let c = Interp.prepare fn in
  let mem = Memory.create () in
  let n = 16 in
  let out = Memory.alloc mem Ssa.F32 (n * n) in
  let inp = Memory.alloc mem Ssa.F32 (n * n) in
  let totals =
    Runtime.launch c
      ~cfg:{ Runtime.global = (n, n, 1); local = (8, 8, 1); queues = 1 }
      ~args:
        [ Runtime.Abuf out; Runtime.Abuf inp; Runtime.Aint n; Runtime.Aint n ]
      ~mem ()
  in
  Alcotest.(check int) "no local accesses" 0 totals.Trace.t_local_accesses;
  Alcotest.(check int) "no barriers" 0 totals.Trace.t_barriers

(* -- Parallel (multi-domain) execution ----------------------------------------- *)

(* Explicit domain requests are clamped to the host's recommended domain
   count (the over-provisioning fix); these tests exercise the actual
   multi-domain dispatch machinery, so they lift the cap for their
   duration — oversubscribing a small host is fine for correctness
   checks. *)
let with_domain_cap (n : int) (f : unit -> 'a) : 'a =
  Runtime.set_domain_cap (Some n);
  Fun.protect ~finally:(fun () -> Runtime.set_domain_cap None) f

let test_parallel_matches_sequential () =
  let c = Runtime.compile_kernel mt_source ~name:"transpose" in
  let n = 64 in
  let run ~domains =
    let mem = Memory.create () in
    let out = Memory.alloc mem Ssa.F32 (n * n) in
    let inp = Memory.alloc mem Ssa.F32 (n * n) in
    Memory.fill_floats inp (fun i -> float_of_int i);
    ignore
      (Runtime.launch c
         ~cfg:{ Runtime.global = (n, n, 1); local = (8, 8, 1); queues = 1 }
         ~args:
           [ Runtime.Abuf out; Runtime.Abuf inp; Runtime.Aint n; Runtime.Aint n ]
         ~mem ~domains ());
    Memory.to_float_array out
  in
  let seq = run ~domains:1
  and par = with_domain_cap 4 (fun () -> run ~domains:4) in
  Alcotest.(check bool) "parallel result matches sequential" true (seq = par)

let test_parallel_rejects_tracing () =
  let c = Runtime.compile_kernel mt_source ~name:"transpose" in
  let mem = Memory.create () in
  let n = 16 in
  let out = Memory.alloc mem Ssa.F32 (n * n) in
  let inp = Memory.alloc mem Ssa.F32 (n * n) in
  match
    with_domain_cap 2 (fun () ->
        Runtime.launch c
          ~cfg:{ Runtime.global = (n, n, 1); local = (8, 8, 1); queues = 1 }
          ~args:
            [
              Runtime.Abuf out; Runtime.Abuf inp; Runtime.Aint n; Runtime.Aint n;
            ]
          ~mem
          ~on_group:(fun _ -> ())
          ~domains:2 ())
  with
  | exception Runtime.Launch_error _ -> ()
  | _ -> Alcotest.fail "tracing + parallel must be rejected"

(* -- Differential: compiled engine vs the tree-walk oracle --------------------
   Every suite kernel, in both versions, must produce bit-identical buffers
   and identical launch totals under the closure-compiled engine and the
   legacy tree-walking engine (kept exactly for this test). *)

module H = Grover_suite.Harness
module Kit = Grover_suite.Kit

(* Buffer contents by allocation id; Private/Local scratch included, so the
   comparison also covers local staging and private spill arrays. [compare]
   rather than [=] so NaN payloads compare deterministically. *)
let snapshot_buffers (mem : Memory.t) : (int * Ssa.space * Memory.storage) list =
  mem.Memory.buffers
  |> List.map (fun (b : Memory.buffer) -> (b.Memory.bid, b.Memory.space, b.Memory.st))
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let run_engine (case : Kit.case) (v : H.version) ~(engine : Interp.engine) :
    Trace.totals * (int * Ssa.space * Memory.storage) list * (unit, string) result =
  let fn, _ = H.compile_version case v in
  let compiled = Interp.prepare ~engine fn in
  let w = case.Kit.mk ~scale:8 in
  let totals =
    Runtime.launch compiled
      ~cfg:{ Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
      ~args:w.Kit.args ~mem:w.Kit.mem ()
  in
  (totals, snapshot_buffers w.Kit.mem, w.Kit.check ())

let check_engines_agree (case : Kit.case) (v : H.version) () =
  let t_tot, t_bufs, t_valid = run_engine case v ~engine:Interp.Tree in
  let c_tot, c_bufs, c_valid = run_engine case v ~engine:Interp.Compiled in
  (match t_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tree engine invalid output: %s" m);
  (match c_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "compiled engine invalid output: %s" m);
  Alcotest.(check bool) "identical launch totals" true (t_tot = c_tot);
  Alcotest.(check bool) "bit-identical buffers" true (compare t_bufs c_bufs = 0)

let differential_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.map
        (fun (v, vn) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" case.Kit.id vn)
            `Quick
            (check_engines_agree case v))
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

let diff_prop_source =
  {|__kernel void k(__global float *out, __global const float *a, int n) {
      __local float tmp[8];
      int l = get_local_id(0);
      int g = get_global_id(0);
      tmp[l] = a[g] * 0.5f;
      barrier(CLK_LOCAL_MEM_FENCE);
      float acc = 0.0f;
      for (int i = 0; i <= l; i++) acc += tmp[i];
      if (g % 2 == 0) out[g] = acc; else out[g] = -acc + (float)n;
    }|}

let prop_engines_agree =
  QCheck.Test.make ~name:"engines agree on random launch shapes" ~count:25
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (groups, wg) ->
      let n = groups * wg in
      let run engine =
        let fn =
          match Lower.compile diff_prop_source with
          | [ f ] -> f
          | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let c = Interp.prepare ~engine fn in
        let mem = Memory.create () in
        let out = Memory.alloc mem Ssa.F32 n in
        let a = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats a (fun i -> float_of_int (i - 3) /. 7.0);
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
            ~mem ()
        in
        (totals, Memory.to_float_array out)
      in
      let t_tot, t_out = run Interp.Tree in
      let c_tot, c_out = run Interp.Compiled in
      t_tot = c_tot && compare t_out c_out = 0)

(* -- Differential: one-lane batches vs tree+fiber --------------------------------
   Forced one-lane batches run every region of the compiled lane code one
   work-item at a time — the form a region with per-work-item control flow
   always takes. Over the whole suite x both versions they must reproduce
   the tree engine under the fiber scheduler: bit-identical buffers (local
   and private scratch included, so context spill/restore is covered) and
   identical launch totals (so the trace stream — cost model, barrier
   rounds — is unchanged). *)

let run_oracle (case : Kit.case) (v : H.version) ?lane_width
    ~(engine : Interp.engine) ~(force_path : Runtime.path) () :
    Trace.totals * (int * Ssa.space * Memory.storage) list * (unit, string) result =
  let fn, _ = H.compile_version case v in
  let compiled = Interp.prepare ~engine ?lane_width fn in
  let w = case.Kit.mk ~scale:8 in
  let totals =
    Runtime.launch compiled
      ~cfg:{ Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
      ~args:w.Kit.args ~mem:w.Kit.mem ~force_path ()
  in
  (totals, snapshot_buffers w.Kit.mem, w.Kit.check ())

let check_against_fibers ~(label : string) (case : Kit.case) (v : H.version)
    (run : unit -> Trace.totals * _ * (unit, string) result) =
  let d_tot, d_bufs, d_valid = run () in
  let f_tot, f_bufs, f_valid =
    run_oracle case v ~engine:Interp.Tree ~force_path:Runtime.Fiber ()
  in
  (match d_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s invalid output: %s" label m);
  (match f_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tree+fiber invalid output: %s" m);
  Alcotest.(check bool) "identical launch totals" true (d_tot = f_tot);
  Alcotest.(check bool) "bit-identical buffers" true (compare d_bufs f_bufs = 0)

let check_paths_agree (case : Kit.case) (v : H.version) () =
  check_against_fibers ~label:"one-lane batches" case v (fun () ->
      run_oracle case v ~engine:Interp.Compiled ~force_path:(Runtime.Lanes 1) ())

let fastpath_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.map
        (fun (v, vn) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" case.Kit.id vn)
            `Quick
            (check_paths_agree case v))
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

(* -- Differential: one-lane batches of W=1 code vs tree+fiber ---------------------
   The same one-lane sweep over code compiled at lane width 1, where a
   uniform value's column and lane 0's coincide. On the tree engine the
   one-lane request degrades to the fiber scheduler, so the comparison
   also pins the capability ladder there. *)

let check_wgloop_agrees (case : Kit.case) (v : H.version)
    (engine : Interp.engine) () =
  check_against_fibers ~label:"one-lane batches (W=1)" case v (fun () ->
      run_oracle case v ~engine ~lane_width:1 ~force_path:(Runtime.Lanes 1) ())

let wgloop_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.concat_map
        (fun (v, vn) ->
          List.map
            (fun (e, en) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s %s" case.Kit.id vn en)
                `Quick
                (check_wgloop_agrees case v e))
            [ (Interp.Compiled, "compiled"); (Interp.Tree, "tree") ])
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

(* -- Differential: W-wide vs one-lane batches vs the fiber scheduler -------------
   Lane batching changes the innermost execution representation
   (struct-of-arrays lane slots, uniform values computed once per batch),
   so it is held to the same standard: bit-identical buffers and identical
   launch totals against one-lane batches and tree+fiber, over the whole
   suite x both kernel versions x both engines. [force_path] degrades
   exactly like the default plan, so on the tree engine every run takes
   the fiber scheduler. *)

let check_wgvec_agrees (case : Kit.case) (v : H.version)
    (engine : Interp.engine) () =
  let runs =
    List.map
      (fun (p, pn) ->
        let tot, bufs, valid = run_oracle case v ~engine ~force_path:p () in
        (match valid with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s path invalid output: %s" pn m);
        (pn, tot, bufs))
      [ (Runtime.Lanes max_int, "W-wide");
        (Runtime.Lanes 1, "one-lane");
        (Runtime.Fiber, "fiber") ]
  in
  match runs with
  | (_, ref_tot, ref_bufs) :: rest ->
      List.iter
        (fun (pn, tot, bufs) ->
          Alcotest.(check bool)
            (Printf.sprintf "W-wide vs %s: identical launch totals" pn)
            true (ref_tot = tot);
          Alcotest.(check bool)
            (Printf.sprintf "W-wide vs %s: bit-identical buffers" pn)
            true
            (compare ref_bufs bufs = 0))
        rest
  | [] -> assert false

let wgvec_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.concat_map
        (fun (v, vn) ->
          List.map
            (fun (e, en) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s %s" case.Kit.id vn en)
                `Quick
                (check_wgvec_agrees case v e))
            [ (Interp.Compiled, "compiled"); (Interp.Tree, "tree") ])
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

let has_barrier (c : Interp.compiled) : bool =
  Ssa.fold_instrs
    (fun acc i -> acc || match i.Ssa.op with Ssa.Barrier _ -> true | _ -> false)
    false c.Interp.fn

(* Non-vacuousness: the differentials above only exercise the region
   executor if the default plan actually selects it. Every with-lm suite
   kernel that has barriers must compile lane code (all suite barriers sit
   in group-uniform control flow) and — unless the run forces a path via
   GROVER_FORCE_PATH — must plan wg-vec. At least one of them must run
   W-wide batches, or the W-wide differentials above would be vacuous. *)
let test_wgloop_selected_for_suite () =
  let forced = Runtime.env_force_path () <> None in
  let barrier_kernels = ref 0 and wide_kernels = ref 0 in
  List.iter
    (fun (case : Kit.case) ->
      let fn, _ = H.compile_version case H.With_lm in
      let c = Interp.prepare ~engine:Interp.Compiled fn in
      if has_barrier c then begin
        incr barrier_kernels;
        Alcotest.(check bool)
          (Printf.sprintf "%s: region metadata compiled" case.Kit.id)
          true (c.Interp.code <> None);
        if Runtime.batch_width (Runtime.default_path c) > 1 then
          incr wide_kernels;
        if not forced then
          let w = case.Kit.mk ~scale:8 in
          let plan =
            Runtime.plan c
              ~cfg:{ Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
              ()
          in
          Alcotest.(check string)
            (Printf.sprintf "%s: planned path" case.Kit.id)
            "wg-vec" (Runtime.path_name plan)
      end)
    Grover_suite.Suite.all;
  Alcotest.(check bool) "suite has with-lm barrier kernels" true
    (!barrier_kernels >= 1);
  Alcotest.(check bool) "suite has W-wide barrier kernels" true
    (!wide_kernels >= 1)

(* -- The default plan ----------------------------------------------------------
   With no override the plan is the widest lane batches a kernel's code
   has, with or without barriers (a barrier-free kernel is the one-region
   case). So Grover's transformed kernels — the without_lm side of every
   Fig. 10 race — must plan W-wide batches on the compiled engine. A
   kernel none of whose regions runs W-wide plans one-lane batches, and
   every kernel on the tree engine plans the fiber scheduler. *)

(* Same kernel as examples/kernels/saxpy.cl: its bounds-guarded store is
   divergent, so its only region runs one-lane batches. *)
let saxpy_source =
  {|__kernel void saxpy(__global float *y, __global const float *x, float a,
                        int n) {
      int i = get_global_id(0);
      if (i < n) {
        y[i] = a * x[i] + y[i];
      }
    }|}

let path_t =
  Alcotest.testable
    (fun ppf -> function
      | Runtime.Lanes w -> Format.fprintf ppf "Lanes %d" w
      | Runtime.Fiber -> Format.fprintf ppf "Fiber")
    ( = )

let check_default_plan ~(label : string) (c : Interp.compiled)
    ~(cfg : Runtime.launch_config) (want : Runtime.path) =
  Alcotest.check path_t (label ^ ": default path") want (Runtime.default_path c);
  (* [plan] with no arguments must agree, unless the environment forces a
     path for the whole run. *)
  match Runtime.env_force_path () with
  | None ->
      Alcotest.check path_t (label ^ ": planned path") want
        (Runtime.plan c ~cfg ()).Runtime.path
  | Some _ -> ()

let suite_cfg (case : Kit.case) : Runtime.launch_config =
  let w = case.Kit.mk ~scale:8 in
  { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }

let test_grover_versions_plan_wgvec () =
  List.iter
    (fun (case : Kit.case) ->
      let fn, _ = H.compile_version case H.Without_lm in
      let c = Interp.prepare ~engine:Interp.Compiled fn in
      check_default_plan ~label:case.Kit.id c ~cfg:(suite_cfg case)
        (Runtime.Lanes (Interp.lane_width_of c)))
    Grover_suite.Suite.all

let test_divergent_store_plans_one_lane () =
  let fn =
    match Lower.compile saxpy_source with [ f ] -> f | _ -> assert false
  in
  Grover_passes.Pipeline.normalize fn;
  let c = Interp.prepare ~engine:Interp.Compiled fn in
  Alcotest.(check bool) "saxpy is barrier-free" false (has_barrier c);
  Alcotest.(check (option (array bool))) "saxpy's one region is one-lane"
    (Some [| false |]) (Interp.lane_entry_flags c);
  check_default_plan ~label:"saxpy" c
    ~cfg:{ Runtime.global = (64, 1, 1); local = (16, 1, 1); queues = 1 }
    (Runtime.Lanes 1)

let test_tree_engine_plans_fiber () =
  List.iter
    (fun (case : Kit.case) ->
      List.iter
        (fun v ->
          let fn, _ = H.compile_version case v in
          let c = Interp.prepare ~engine:Interp.Tree fn in
          check_default_plan ~label:case.Kit.id c ~cfg:(suite_cfg case)
            Runtime.Fiber)
        [ H.With_lm; H.Without_lm ])
    Grover_suite.Suite.all

(* The GROVER_FORCE_PATH vocabulary: [wg-vec] asks for the widest lane
   batches, the retired one-work-item schedulers' names mean one-lane
   batches, and anything else is rejected. *)
let test_path_of_string () =
  let check s want =
    Alcotest.(check (option path_t)) s want (Runtime.path_of_string s)
  in
  check "wg-vec" (Some (Runtime.Lanes max_int));
  check "wg-loop" (Some (Runtime.Lanes 1));
  check "fiberless" (Some (Runtime.Lanes 1));
  check "fiber" (Some Runtime.Fiber);
  List.iter (fun s -> check s None) [ ""; "bogus"; "lanes"; "WG-VEC" ]

(* GROVER_FORCE_PATH is read through [env_force_path] alone: unset or
   empty pins nothing, a known name pins its path, and anything else is a
   launch error rather than a silent default. *)
let test_env_force_path () =
  let with_force_path v f =
    let old = Sys.getenv_opt "GROVER_FORCE_PATH" in
    Unix.putenv "GROVER_FORCE_PATH" v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "GROVER_FORCE_PATH" (Option.value old ~default:""))
      f
  in
  let check v want =
    with_force_path v (fun () ->
        Alcotest.(check (option path_t)) v want (Runtime.env_force_path ()))
  in
  check "" None;
  check "wg-vec" (Some (Runtime.Lanes max_int));
  check "fiberless" (Some (Runtime.Lanes 1));
  check "fiber" (Some Runtime.Fiber);
  with_force_path "bogus" (fun () ->
      match Runtime.env_force_path () with
      | exception Runtime.Launch_error m ->
          Alcotest.(check string) "the error names the value"
            "unknown GROVER_FORCE_PATH \"bogus\" (expected wg-vec, wg-loop, \
             fiberless or fiber)"
            m
      | _ -> Alcotest.fail "an unknown GROVER_FORCE_PATH must be rejected")

(* A kernel with an int, a float and a boxed (vector) value all live
   across its barrier: every context-spill kind is exercised. *)
let spill_prop_source =
  {|__kernel void k(__global float4 *vout, __global float *sout,
                    __global const float4 *a, __global const float *b, int n) {
      __local float tmp[64];
      int l = get_local_id(0);
      int g = get_global_id(0);
      int li = l * 2 + 1;
      float fv = b[g] * 0.5f;
      float4 v = a[g];
      tmp[l] = b[g] + (float)n;
      barrier(CLK_LOCAL_MEM_FENCE);
      sout[g] = tmp[(l + 1) % get_local_size(0)] + fv + (float)li;
      vout[g] = v * v;
    }|}

let test_spill_kernel_forms_regions () =
  let fn =
    match Lower.compile spill_prop_source with [ f ] -> f | _ -> assert false
  in
  Grover_passes.Pipeline.normalize fn;
  match Regions.form fn with
  | Regions.Formed i ->
      Alcotest.(check int) "two regions" 2 i.Regions.n_regions;
      Alcotest.(check bool) "at least int+float+vector live across" true
        (Regions.spill_footprint i >= 3)
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r

(* Region-boundary spilling preserves results: under random launch
   shapes, the compiled default plan and tree+fiber agree on buffers and
   totals for the every-spill-kind kernel above. *)
let prop_spill_preserves_results =
  QCheck.Test.make ~name:"region spilling preserves results" ~count:25
    QCheck.(pair (int_range 1 8) (int_range 1 16))
    (fun (groups, wg) ->
      let n = groups * wg in
      let run oracle =
        let fn =
          match Lower.compile spill_prop_source with
          | [ f ] -> f
          | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let c, force_path =
          if oracle then (Interp.prepare ~engine:Interp.Tree fn, Some Runtime.Fiber)
          else (Interp.prepare ~engine:Interp.Compiled fn, None)
        in
        let mem = Memory.create () in
        let vout = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) n in
        let sout = Memory.alloc mem Ssa.F32 n in
        let a = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) n in
        let b = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats a (fun i -> float_of_int (i - 5) /. 3.0);
        Memory.fill_floats b (fun i -> float_of_int (i * 7 mod 11) /. 4.0);
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:
              [ Runtime.Abuf vout; Runtime.Abuf sout; Runtime.Abuf a;
                Runtime.Abuf b; Runtime.Aint n ]
            ~mem ?force_path ()
        in
        (totals, snapshot_buffers mem)
      in
      let d_tot, d_bufs = run false in
      let f_tot, f_bufs = run true in
      d_tot = f_tot && compare d_bufs f_bufs = 0)

(* Lane width is an implementation knob, not a semantic one: W ∈ {1,4,8}
   must be output-invariant for every launch shape, including group sizes
   that are not a multiple of W (the final batch of a sweep shrinks to
   the remainder — the peeled tail). The every-spill-kind kernel above
   runs under the forced wg-vec plan at each width and is compared
   against the fiber scheduler bit for bit. *)
let prop_lane_width_invariant =
  QCheck.Test.make ~name:"lane width W in {1,4,8} is output-invariant"
    ~count:20
    QCheck.(triple (int_range 1 6) (int_range 1 16) (oneofl [ 1; 4; 8 ]))
    (fun (groups, wg, width) ->
      let n = groups * wg in
      let run mode =
        let fn =
          match Lower.compile spill_prop_source with
          | [ f ] -> f
          | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let mem = Memory.create () in
        let vout = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) n in
        let sout = Memory.alloc mem Ssa.F32 n in
        let a = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) n in
        let b = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats a (fun i -> float_of_int (i - 5) /. 3.0);
        Memory.fill_floats b (fun i -> float_of_int (i * 7 mod 11) /. 4.0);
        let c, force_path =
          match mode with
          | `Lanes w ->
              (Interp.prepare ~lane_width:w fn, Some (Runtime.Lanes max_int))
          | `Fibers -> (Interp.prepare fn, Some Runtime.Fiber)
        in
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:
              [ Runtime.Abuf vout; Runtime.Abuf sout; Runtime.Abuf a;
                Runtime.Abuf b; Runtime.Aint n ]
            ~mem ?force_path ()
        in
        (totals, snapshot_buffers mem)
      in
      let v_tot, v_bufs = run (`Lanes width) in
      let f_tot, f_bufs = run `Fibers in
      v_tot = f_tot && compare v_bufs f_bufs = 0)

(* -- Masked lane execution (divergent diamonds) -------------------------------
   A guarded-diamond kernel: a boundary clamp (triangle — one arm is the
   fall-through edge) and a two-armed pure value diamond, both divergent,
   plus a barrier so W-wide batches, one-lane batches and fibers all
   execute distinct machinery. The diamonds must classify as
   lane-capable-with-mask and the masked batch must stay bit-identical to
   both one-work-item oracles. *)

let lower_one src =
  let fn = match Lower.compile src with [ f ] -> f | _ -> assert false in
  Grover_passes.Pipeline.normalize fn;
  fn

let masked_diamond_source =
  {|__kernel void k(__global float *out, __global const float *a, int n) {
      __local float tile[64];
      int g = get_global_id(0);
      int l = get_local_id(0);
      int idx = g;
      if (idx >= n) idx = n - 1;
      float x = a[idx];
      float y;
      if (x > 0.5f) { y = x * 2.0f; } else { y = x - 3.0f; }
      tile[l] = y;
      barrier(CLK_LOCAL_MEM_FENCE);
      out[g] = tile[(l + 1) % get_local_size(0)] + (float)idx;
    }|}

let test_masked_diamonds_classify () =
  let fn = lower_one masked_diamond_source in
  match Regions.form fn with
  | Regions.Formed i ->
      Alcotest.(check int) "two regions" 2 i.Regions.n_regions;
      (match i.Regions.lane_entries.(0) with
      | Regions.Lane_masked d ->
          Alcotest.(check int) "two masked diamonds" 2 d
      | lv ->
          Alcotest.failf "region 0 should be masked, got: %s"
            (Regions.verdict_string lv));
      (match i.Regions.lane_entries.(1) with
      | Regions.Lane -> ()
      | lv ->
          Alcotest.failf "region 1 should be plain lane batch, got: %s"
            (Regions.verdict_string lv))
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r

let test_divergent_store_still_bails () =
  let fn =
    lower_one
      {|__kernel void f(__global int *out, int n) {
          __local int tmp[8];
          int l = get_local_id(0);
          if (l < 4) { tmp[l] = l; }
          barrier(CLK_LOCAL_MEM_FENCE);
          out[get_global_id(0)] = tmp[l % 4] + n;
        }|}
  in
  match Regions.form fn with
  | Regions.Formed i -> (
      match i.Regions.lane_entries.(0) with
      | Regions.Scalar r ->
          Alcotest.(check bool)
            (Printf.sprintf "bail reason names the store: %s" r)
            true
            (String.length r >= 15
            && String.sub r 0 15 = "divergent store")
      | lv ->
          Alcotest.failf "divergent store must stay scalar, got: %s"
            (Regions.verdict_string lv))
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r

let run_masked_kernel ~(engine : Interp.engine) ?lane_width ~force_path ~n ~wg
    () =
  let fn =
    match Lower.compile masked_diamond_source with
    | [ f ] -> f
    | _ -> assert false
  in
  Grover_passes.Pipeline.normalize fn;
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.F32 n in
  let a = Memory.alloc mem Ssa.F32 n in
  Memory.fill_floats a (fun i -> float_of_int (i * 13 mod 17) /. 8.0);
  let c = Interp.prepare ~engine ?lane_width fn in
  let totals =
    Runtime.launch c
      ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
      ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
      ~mem ?force_path ()
  in
  (c, totals, snapshot_buffers mem)

(* The peeled-tail edge case. A group smaller than the chosen lane width W
   must run as one nl-wide batch — same buffers and totals as one-lane
   batches and tree+fiber — for every wg in 1..W-1 under W in {4,8}, and
   the kernel must actually run W-wide (not a silent fallback). *)
let test_masked_tail_smaller_than_width () =
  List.iter
    (fun w ->
      for wg = 1 to w - 1 do
        let n = wg * 3 in
        let cv, v_tot, v_bufs =
          run_masked_kernel ~engine:Interp.Compiled ~lane_width:w
            ~force_path:(Some (Runtime.Lanes max_int)) ~n ~wg ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "W=%d wg=%d: kernel runs W-wide batches" w wg)
          true
          (Runtime.default_path cv = Runtime.Lanes w);
        let _, l_tot, l_bufs =
          run_masked_kernel ~engine:Interp.Compiled
            ~force_path:(Some (Runtime.Lanes 1)) ~n ~wg ()
        in
        let _, f_tot, f_bufs =
          run_masked_kernel ~engine:Interp.Tree
            ~force_path:(Some Runtime.Fiber) ~n ~wg ()
        in
        Alcotest.(check bool)
          (Printf.sprintf "W=%d wg=%d: W-wide totals = one-lane totals" w wg)
          true (v_tot = l_tot);
        Alcotest.(check bool)
          (Printf.sprintf "W=%d wg=%d: W-wide totals = fiber totals" w wg)
          true (v_tot = f_tot);
        Alcotest.(check bool)
          (Printf.sprintf "W=%d wg=%d: buffers vs one-lane" w wg)
          true
          (compare v_bufs l_bufs = 0);
        Alcotest.(check bool)
          (Printf.sprintf "W=%d wg=%d: buffers vs fiber" w wg)
          true
          (compare v_bufs f_bufs = 0)
      done)
    [ 4; 8 ]

(* Random guarded-diamond kernels. A pure two-armed diamond with a random
   predicate and random pure arms, behind a random clamp guard, at group
   sizes that are deliberately not multiples of W: masked W-wide batches
   must agree with one-lane batches and the fiber scheduler bit for bit,
   under both engines (the tree engine has no lane code, so its lane
   requests degrade to fibers — the property still pins all three plans
   to one answer). *)
let prop_masked_diamond_agrees =
  let pred_of = function
    | 0 -> "x > 0.25f"
    | 1 -> "x < 0.75f"
    | 2 -> "g % 3 == 1"
    | _ -> "x * x > 0.5f"
  and then_of = function
    | 0 -> "x * 2.0f"
    | 1 -> "x + 1.5f"
    | _ -> "0.5f - x"
  and else_of = function
    | 0 -> "x - 3.0f"
    | 1 -> "x * x"
    | _ -> "1.0f / (x + 2.0f)"
  in
  QCheck.Test.make
    ~name:"masked W-wide = one-lane = fiber on guarded diamonds"
    ~count:15
    QCheck.(
      pair
        (triple (int_range 0 3) (int_range 0 2) (int_range 0 2))
        (triple (int_range 1 4) (int_range 1 16) (oneofl [ 4; 8 ])))
    (fun ((p, t, e), (groups, wg, width)) ->
      let src =
        Printf.sprintf
          {|__kernel void k(__global float *out, __global const float *a, int n) {
              __local float tile[64];
              int g = get_global_id(0);
              int l = get_local_id(0);
              int idx = g;
              if (idx >= n) idx = n - 1;
              float x = a[idx];
              float y;
              if (%s) { y = %s; } else { y = %s; }
              tile[l] = y;
              barrier(CLK_LOCAL_MEM_FENCE);
              out[g] = tile[(l + 1) %% get_local_size(0)] + (float)idx;
            }|}
          (pred_of p) (then_of t) (else_of e)
      in
      let n = groups * wg in
      let run engine force_path lane_width =
        let fn =
          match Lower.compile src with [ f ] -> f | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let mem = Memory.create () in
        let out = Memory.alloc mem Ssa.F32 n in
        let a = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats a (fun i -> float_of_int (i * 7 mod 13) /. 6.0);
        let c = Interp.prepare ~engine ?lane_width fn in
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
            ~mem ~force_path ()
        in
        (totals, snapshot_buffers mem)
      in
      List.for_all
        (fun engine ->
          let v = run engine (Runtime.Lanes max_int) (Some width) in
          let l = run engine (Runtime.Lanes 1) None in
          let f = run engine Runtime.Fiber None in
          v = l && l = f)
        [ Interp.Compiled; Interp.Tree ])

(* -- Private arrays across a barrier ---------------------------------------------
   Same kernel as examples/kernels/private_array.cl: a private array
   written before a uniform barrier and read after it. Region 0 allocates
   it and runs one-lane batches; region 1 runs W-wide batches, every lane
   reading its own work-item's array. The compiled default plan must match
   tree+fiber on buffers (the private arrays included), totals and every
   Private- and Local-space trace event: same work-item, address and
   direction, in each work-item's program order. Groups of 10 are not a
   multiple of W. The trace does not depend on the hardware: every group
   has group 0's local and private addresses, and [queues] changes
   nothing. *)

let private_array_source =
  {|__kernel void private_array(__global float *out, __global const float *in) {
      __local float tile[16];
      float acc[4];
      int l = get_local_id(0);
      int g = get_global_id(0);
      for (int k = 0; k < 4; k++) {
        acc[k] = in[g] * (float)(k + 1);
      }
      tile[l] = acc[3];
      barrier(CLK_LOCAL_MEM_FENCE);
      out[g] = acc[0] + acc[l % 4] + tile[(l + 1) % get_local_size(0)];
    }|}

let test_private_array_matches_fibers () =
  let n = 40 and wg = 10 in
  let run ?(queues = 1) engine force_path =
    let fn = lower_one private_array_source in
    let c = Interp.prepare ~engine fn in
    let mem = Memory.create () in
    let out = Memory.alloc mem Ssa.F32 n in
    let inp = Memory.alloc mem Ssa.F32 n in
    Memory.fill_floats inp (fun i -> float_of_int ((i * 7 mod 11) - 4) /. 4.0);
    let priv = ref [] in
    let on_group (s : Trace.wg_stats) =
      let evs =
        List.filter_map
          (fun k ->
            let e = Trace.get_event s k in
            if e.Trace.space = Ssa.Private || e.Trace.space = Ssa.Local then
              Some (e.Trace.wi, e.Trace.space, e.Trace.addr, e.Trace.is_write)
            else None)
          (List.init s.Trace.n_events Fun.id)
      in
      priv :=
        (s.Trace.wg_id, List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) evs)
        :: !priv
    in
    let totals =
      Runtime.launch c
        ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues }
        ~args:[ Runtime.Abuf out; Runtime.Abuf inp ]
        ~mem ~on_group ?force_path ()
    in
    (c, totals, snapshot_buffers mem, List.rev !priv)
  in
  let c, d_tot, d_bufs, d_priv = run Interp.Compiled None in
  let _, f_tot, f_bufs, f_priv = run Interp.Tree (Some Runtime.Fiber) in
  let _, _, _, d_priv8 = run ~queues:8 Interp.Compiled None in
  let _, _, _, f_priv8 = run ~queues:8 Interp.Tree (Some Runtime.Fiber) in
  (match c.Interp.regions with
  | Regions.Formed i -> (
      match i.Regions.lane_entries.(0) with
      | Regions.Scalar r ->
          Alcotest.(check bool)
            (Printf.sprintf "region 0 bails on the private alloca: %s" r)
            true
            (String.length r >= 14 && String.sub r 0 14 = "private alloca")
      | lv ->
          Alcotest.failf "region 0 must run one-lane batches, got: %s"
            (Regions.verdict_string lv))
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r);
  Alcotest.(check (option (array bool))) "one-lane region 0, W-wide region 1"
    (Some [| false; true |]) (Interp.lane_entry_flags c);
  Alcotest.check path_t "default plan" (Runtime.Lanes (Interp.lane_width_of c))
    (Runtime.default_path c);
  let traced space =
    List.exists (fun (_, evs) -> List.exists (fun (_, sp, _, _) -> sp = space) evs) d_priv
  in
  Alcotest.(check bool) "private events traced" true (traced Ssa.Private);
  Alcotest.(check bool) "local events traced" true (traced Ssa.Local);
  Alcotest.(check int) "four groups" 4 (List.length d_priv);
  Alcotest.(check bool) "identical launch totals" true (d_tot = f_tot);
  Alcotest.(check bool) "bit-identical buffers" true (compare d_bufs f_bufs = 0);
  Alcotest.(check bool) "identical private and local trace events" true (d_priv = f_priv);
  List.iter
    (fun (label, evs) ->
      let group0 = List.assoc 0 evs in
      Alcotest.(check bool)
        (label ^ ": every group has group 0's local and private addresses")
        true
        (List.for_all (fun (_, e) -> e = group0) evs))
    [ ("compiled, 8 queues", d_priv8); ("tree, 8 queues", f_priv8) ];
  Alcotest.(check bool) "8 queues trace what 1 queue traces (compiled)" true (d_priv8 = d_priv);
  Alcotest.(check bool) "8 queues trace what 1 queue traces (tree)" true (f_priv8 = f_priv)

(* Lowering puts every alloca in the entry block, so only hand-built IR
   allocates in a later region: there the work-item's bump offset must
   continue from where its region-0 allocations left it, as on the fiber
   scheduler. *)
let test_private_alloca_after_barrier () =
  let out = { Ssa.a_index = 0; a_name = "out"; a_ty = Ssa.Ptr (Ssa.Global, Ssa.I32) } in
  let fn, b = Builder.create_function ~name:"k" ~args:[ out ] in
  let l = Builder.call b "get_local_id" [ Builder.i32 0 ] Ssa.I32 in
  let p = Builder.alloca b Ssa.Private Ssa.I32 2 in
  Builder.store b p (Builder.i32 0) l;
  Builder.barrier b ~blocal:true ~bglobal:false;
  let q = Builder.alloca b Ssa.Private Ssa.I32 3 in
  Builder.store b q (Builder.i32 1)
    (Builder.binop b Ssa.Add l (Builder.load b p (Builder.i32 0)));
  let g = Builder.call b "get_global_id" [ Builder.i32 0 ] Ssa.I32 in
  Builder.store b (Ssa.Arg out) g (Builder.load b q (Builder.i32 1));
  Builder.ret b;
  Verify.run fn;
  let run engine force_path =
    let c = Interp.prepare ~engine fn in
    let mem = Memory.create () in
    let ob = Memory.alloc mem Ssa.I32 12 in
    let priv = ref [] in
    let on_group (s : Trace.wg_stats) =
      Trace.iter_events
        (fun e ->
          if e.Trace.space = Ssa.Private then
            priv := (s.Trace.wg_id, e.Trace.wi, e.Trace.addr) :: !priv)
        s
    in
    let totals =
      Runtime.launch c
        ~cfg:{ Runtime.global = (12, 1, 1); local = (6, 1, 1); queues = 1 }
        ~args:[ Runtime.Abuf ob ] ~mem ~on_group ?force_path ()
    in
    (c, totals, snapshot_buffers mem, List.sort compare !priv)
  in
  let c, d_tot, d_bufs, d_priv = run Interp.Compiled None in
  let _, f_tot, f_bufs, f_priv = run Interp.Tree (Some Runtime.Fiber) in
  Alcotest.(check (option (array bool))) "both regions run one-lane batches"
    (Some [| false; false |]) (Interp.lane_entry_flags c);
  (* q.(1) of a work-item whose p took the first 8 bytes *)
  Alcotest.(check bool) "region 1 allocates past region 0's array" true
    (List.exists (fun (_, _, a) -> a = 0x1000 + 8 + 4) d_priv);
  Alcotest.(check bool) "identical launch totals" true (d_tot = f_tot);
  Alcotest.(check bool) "bit-identical buffers" true (compare d_bufs f_bufs = 0);
  Alcotest.(check bool) "identical private trace events" true (d_priv = f_priv)

(* -- Region formation verdicts ------------------------------------------------ *)

let test_regions_barrier_free () =
  let fn =
    lower_one
      "__kernel void f(__global float *o, __global const float *a) { int i = get_global_id(0); o[i] = a[i] * 2.0f; }"
  in
  match Regions.form fn with
  | Regions.Formed i ->
      Alcotest.(check int) "one region" 1 i.Regions.n_regions;
      Alcotest.(check int) "no barriers" 0 (Array.length i.Regions.barriers)
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r

let test_regions_transpose () =
  let fn = lower_one mt_source in
  match Regions.form fn with
  | Regions.Formed i ->
      Alcotest.(check int) "two regions" 2 i.Regions.n_regions;
      Alcotest.(check int) "one barrier" 1 (Array.length i.Regions.barriers);
      Alcotest.(check bool) "values live across the barrier" true
        (Array.length i.Regions.live_across.(0) > 0)
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r

let test_regions_divergent_barrier_falls_back () =
  let fn =
    lower_one
      {|__kernel void f(__global int *out) {
          __local int tmp[8];
          int l = get_local_id(0);
          tmp[l] = l;
          if (l < 4) { barrier(CLK_LOCAL_MEM_FENCE); }
          out[get_global_id(0)] = tmp[0];
        }|}
  in
  match Regions.form fn with
  | Regions.Fallback _ -> ()
  | Regions.Formed _ ->
      Alcotest.fail "divergent barrier must not form regions"

let test_regions_uniform_branch_qualifies () =
  (* Same shape as examples/kernels/uniform_branch_barrier.cl: the
     barrier sits under a branch, but the condition is group-uniform. *)
  let fn =
    lower_one
      {|__kernel void f(__global float *out, __global const float *in) {
          __local float tile[16];
          int l = get_local_id(0);
          int g = get_global_id(0);
          if (get_group_id(0) % 2 == 0) {
            tile[l] = in[g] * 2.0f;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[g] = tile[15 - l];
          } else {
            out[g] = in[g];
          }
        }|}
  in
  match Regions.form fn with
  | Regions.Formed i ->
      Alcotest.(check int) "two regions" 2 i.Regions.n_regions
  | Regions.Fallback r ->
      Alcotest.failf "uniform branch wrongly rejected: %s" r

(* -- Differential: chunked parallel execution vs serial -----------------------
   Work-groups distributed over pool domains by atomic chunk-claiming must
   produce the same global buffers and totals as the serial launch. Local
   and private scratch lives in per-domain memory under parallel execution,
   so only Global/Constant buffers (the kernel-visible results) are
   compared. *)

let snapshot_globals (mem : Memory.t) : (int * Ssa.space * Memory.storage) list =
  snapshot_buffers mem
  |> List.filter (fun (_, sp, _) ->
         match sp with Ssa.Global | Ssa.Constant -> true | _ -> false)

let run_domains (case : Kit.case) (v : H.version) ~(domains : int) :
    Trace.totals * (int * Ssa.space * Memory.storage) list * (unit, string) result =
  let fn, _ = H.compile_version case v in
  let compiled = Interp.prepare fn in
  let w = case.Kit.mk ~scale:8 in
  let totals =
    Runtime.launch compiled
      ~cfg:{ Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
      ~args:w.Kit.args ~mem:w.Kit.mem ~domains ()
  in
  (totals, snapshot_globals w.Kit.mem, w.Kit.check ())

let check_parallel_agrees (case : Kit.case) (v : H.version) () =
  let s_tot, s_bufs, s_valid = run_domains case v ~domains:1 in
  let p_tot, p_bufs, p_valid =
    with_domain_cap 4 (fun () -> run_domains case v ~domains:4)
  in
  (match s_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "serial launch invalid output: %s" m);
  (match p_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "parallel launch invalid output: %s" m);
  Alcotest.(check bool) "identical launch totals" true (s_tot = p_tot);
  Alcotest.(check bool) "bit-identical global buffers" true
    (compare s_bufs p_bufs = 0)

let parallel_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.map
        (fun (v, vn) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" case.Kit.id vn)
            `Quick
            (check_parallel_agrees case v))
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

(* Totals must be invariant in the domain count (and in the chunk
   partition it induces) over random NDRange / work-group shapes. *)
let prop_domain_count_invariant =
  QCheck.Test.make ~name:"totals are domain-count invariant" ~count:20
    QCheck.(triple (int_range 1 8) (int_range 1 8) (int_range 1 4))
    (fun (groups, wg, wg_y) ->
      let n = groups * wg in
      let run domains =
        let fn =
          match Lower.compile diff_prop_source with
          | [ f ] -> f
          | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let c = Interp.prepare fn in
        let mem = Memory.create () in
        let out = Memory.alloc mem Ssa.F32 (n * wg_y) in
        let a = Memory.alloc mem Ssa.F32 (n * wg_y) in
        Memory.fill_floats a (fun i -> float_of_int (i - 3) /. 7.0);
        let totals =
          Runtime.launch c
            ~cfg:
              {
                Runtime.global = (n, wg_y, 1);
                local = (wg, wg_y, 1);
                queues = 1;
              }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
            ~mem ~domains ()
        in
        (totals, Memory.to_float_array out)
      in
      let t1, o1 = run 1 in
      with_domain_cap 4 (fun () ->
          List.for_all
            (fun d ->
              let td, od = run d in
              t1 = td && compare o1 od = 0)
            [ 2; 4; 0 ]))

(* -- Launch validation -------------------------------------------------------- *)

let test_launch_bad_sizes () =
  let c =
    Runtime.compile_kernel "__kernel void f(__global int *a) { a[0] = 1; }"
      ~name:"f"
  in
  let mem = Memory.create () in
  let a = Memory.alloc mem Ssa.I32 4 in
  match
    Runtime.launch c
      ~cfg:{ Runtime.global = (10, 1, 1); local = (4, 1, 1); queues = 1 }
      ~args:[ Runtime.Abuf a ] ~mem ()
  with
  | exception Runtime.Launch_error _ -> ()
  | _ -> Alcotest.fail "non-divisible global size must be rejected"

(* The geometry rule [launch] applies, checked before anything runs (the
   sanitizer calls it to report a bad NDRange as a usage error): every
   work-group size positive, every global size a multiple of it. *)
let test_check_geometry () =
  let check label ~global ~local want =
    let got =
      match
        Runtime.check_geometry { Runtime.global; local; queues = 1 }
      with
      | () -> None
      | exception Runtime.Launch_error m -> Some m
    in
    Alcotest.(check (option string)) label want got
  in
  let positive = Some "work-group sizes must be positive"
  and multiple = Some "global size must be a multiple of the work-group size" in
  check "divisible" ~global:(64, 8, 2) ~local:(16, 4, 2) None;
  check "one group" ~global:(1, 1, 1) ~local:(1, 1, 1) None;
  check "zero local x" ~global:(8, 1, 1) ~local:(0, 1, 1) positive;
  check "negative local y" ~global:(8, 4, 1) ~local:(8, -2, 1) positive;
  check "zero local z" ~global:(8, 1, 1) ~local:(8, 1, 0) positive;
  check "x not a multiple" ~global:(10, 1, 1) ~local:(4, 1, 1) multiple;
  check "y not a multiple" ~global:(8, 6, 1) ~local:(8, 4, 1) multiple;
  check "z not a multiple" ~global:(8, 1, 3) ~local:(8, 1, 2) multiple

let test_launch_bad_args () =
  let c =
    Runtime.compile_kernel "__kernel void f(__global int *a, int n) { a[0] = n; }"
      ~name:"f"
  in
  let mem = Memory.create () in
  let a = Memory.alloc mem Ssa.I32 4 in
  (match
     Runtime.launch c
       ~cfg:{ Runtime.global = (1, 1, 1); local = (1, 1, 1); queues = 1 }
       ~args:[ Runtime.Abuf a ] ~mem ()
   with
  | exception Runtime.Launch_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch must be rejected");
  match
    Runtime.launch c
      ~cfg:{ Runtime.global = (1, 1, 1); local = (1, 1, 1); queues = 1 }
      ~args:[ Runtime.Abuf a; Runtime.Afloat 1.0 ] ~mem ()
  with
  | exception Runtime.Launch_error _ -> ()
  | _ -> Alcotest.fail "type mismatch must be rejected"

let test_out_of_bounds_trapped () =
  let c =
    Runtime.compile_kernel "__kernel void f(__global int *a) { a[99] = 1; }"
      ~name:"f"
  in
  let mem = Memory.create () in
  let a = Memory.alloc mem Ssa.I32 4 in
  match
    Runtime.launch c
      ~cfg:{ Runtime.global = (1, 1, 1); local = (1, 1, 1); queues = 1 }
      ~args:[ Runtime.Abuf a ] ~mem ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-bounds store must trap"

(* -- Vector builtins on float4 ---------------------------------------------------
   One test per builtin family: the tree engine, the W-wide lane batches
   (the compiled default plan) and one-lane batches must all produce the
   host-computed components bit for bit. Groups of 6 work-items are
   smaller than the default lane width of 8, so every W-wide batch runs
   with inactive tail lanes. *)

let vec_n = 12

let vec_inputs () =
  ( Array.init (vec_n * 4) (fun k -> float_of_int ((k * 7 mod 19) - 9) /. 4.0),
    Array.init (vec_n * 4) (fun k -> float_of_int ((k * 5 mod 13) - 6) /. 3.0),
    Array.init (vec_n * 4) (fun k -> float_of_int ((k * 3 mod 11) - 2) /. 2.0) )

let run_vec_builtin ~(scalar_out : bool) ~(expr : string)
    ~(engine : Interp.engine) ?force_path () : float array =
  let fn =
    lower_one
      (Printf.sprintf
         {|__kernel void k(__global %s *out, __global const float4 *a,
                           __global const float4 *b, __global const float4 *c) {
             int i = get_global_id(0);
             float4 x = a[i];
             float4 y = b[i];
             float4 z = c[i];
             out[i] = %s;
           }|}
         (if scalar_out then "float" else "float4")
         expr)
  in
  let v4 = Ssa.Vec (Ssa.F32, 4) in
  let mem = Memory.create () in
  let out = Memory.alloc mem (if scalar_out then Ssa.F32 else v4) vec_n in
  let xs, ys, zs = vec_inputs () in
  let bufs =
    List.map
      (fun src ->
        let b = Memory.alloc mem v4 vec_n in
        Memory.fill_floats b (fun k -> src.(k));
        Runtime.Abuf b)
      [ xs; ys; zs ]
  in
  let c = Interp.prepare ~engine fn in
  ignore
    (Runtime.launch c
       ~cfg:{ Runtime.global = (vec_n, 1, 1); local = (6, 1, 1); queues = 1 }
       ~args:(Runtime.Abuf out :: bufs) ~mem ?force_path ());
  Memory.to_float_array out

let check_vec_builtin ?(scalar_out = false) ~(expr : string)
    (expected : float array -> float array -> float array -> float array) =
  let xs, ys, zs = vec_inputs () in
  let want = expected xs ys zs in
  List.iter
    (fun (label, engine, force_path) ->
      let got = run_vec_builtin ~scalar_out ~expr ~engine ?force_path () in
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s = host" expr label)
        true
        (compare got want = 0))
    [ ("tree", Interp.Tree, None);
      ("compiled wg-vec", Interp.Compiled, None);
      ("compiled one-lane", Interp.Compiled, Some (Runtime.Lanes 1)) ]

let componentwise f xs ys zs =
  Array.init (Array.length xs) (fun k -> f xs.(k) ys.(k) zs.(k))

let test_vec_clamp () =
  check_vec_builtin ~expr:"clamp(x, -0.5f, 0.5f)"
    (componentwise (fun x _ _ -> Float.min (Float.max x (-0.5)) 0.5));
  check_vec_builtin ~expr:"clamp(x, y, z)"
    (componentwise (fun x y z -> Float.min (Float.max x y) z))

let test_vec_mix () =
  check_vec_builtin ~expr:"mix(x, y, z)"
    (componentwise (fun x y z -> x +. ((y -. x) *. z)))

let test_vec_min_max () =
  check_vec_builtin ~expr:"min(x, y)" (componentwise (fun x y _ -> Float.min x y));
  check_vec_builtin ~expr:"max(x, y)" (componentwise (fun x y _ -> Float.max x y))

let test_vec_abs () =
  check_vec_builtin ~expr:"abs(x)" (componentwise (fun x _ _ -> Float.abs x))

let test_vec_dot () =
  check_vec_builtin ~scalar_out:true ~expr:"dot(x, y)" (fun xs ys _ ->
      Array.init vec_n (fun i ->
          let s = ref 0.0 in
          for j = 0 to 3 do
            s := !s +. (xs.((4 * i) + j) *. ys.((4 * i) + j))
          done;
          !s))

let test_vec_mad_fma () =
  List.iter
    (fun f ->
      check_vec_builtin ~expr:(f ^ "(x, y, z)")
        (componentwise (fun x y z -> (x *. y) +. z)))
    [ "mad"; "fma" ]

let test_vec_fmax () =
  check_vec_builtin ~expr:"fmax(x, y)" (componentwise (fun x y _ -> Float.max x y))

let test_vec_sqrt () =
  check_vec_builtin ~expr:"sqrt(x * x + y)"
    (componentwise (fun x y _ -> Float.sqrt ((x *. x) +. y)))

(* -- Random float4 kernels ------------------------------------------------------
   Each generated kernel mixes float4 loads and stores, + - * /, splat and
   literal constructors, .x/.y/.z/.w reads and writes, a float4 carried
   around a loop, one live across a uniform barrier and one chosen inside
   a pure divergent diamond. The tree engine under fibers and the
   compiled lane code in W-wide (W in {1,4,8}) and one-lane batches must
   agree on buffers and totals bit for bit, at group sizes that are not
   multiples of W; the W-wide run must really batch every region. *)

let float4_kernel_gen =
  let open QCheck.Gen in
  let bop = oneofl [ "+"; "-"; "*"; "/" ] in
  let cmp = oneofl [ "x"; "y"; "z"; "w" ] in
  let lit =
    oneof
      [ map (fun k -> Printf.sprintf "(float4)(%d.5f)" k) (int_range (-3) 3);
        map
          (fun (a, b, c, d) ->
            Printf.sprintf "(float4)(%d.0f, %d.25f, %d.5f, %d.75f)" a b c d)
          (quad (int_range 1 4) (int_range (-2) 2) (int_range 1 3)
             (int_range (-1) 2)) ]
  in
  let pred =
    oneofl [ "x.x > 0.0f"; "g % 3 == 1"; "y.w < x.z"; "acc.y * acc.y > 1.0f" ]
  in
  map
    (fun ((o1, o2, o3, o4), (c1, c2, c3), (l1, l2), (trip, p)) ->
      Printf.sprintf
        {|__kernel void k(__global float4 *out, __global const float4 *a,
                          __global const float4 *b, int n) {
            __local float4 tile[64];
            int g = get_global_id(0);
            int l = get_local_id(0);
            float4 x = a[g];
            float4 y = b[g];
            float4 acc = %s;
            for (int t = 0; t < %d; t++) {
              acc = acc %s (x %s y);
              acc.%s = acc.%s + y.%s;
            }
            float4 v;
            if (%s) { v = acc %s y; } else { v = x + %s; }
            tile[l] = v;
            barrier(CLK_LOCAL_MEM_FENCE);
            float4 w = tile[(l + 1) %% get_local_size(0)];
            out[g] = w %s acc + x * (float)n;
          }|}
        l1 trip o1 o2 c1 c2 c3 p o3 l2 o4)
    (quad (quad bop bop bop bop) (triple cmp cmp cmp) (pair lit lit)
       (pair (int_range 0 3) pred))

let prop_float4_kernels_agree =
  QCheck.Test.make
    ~name:"random float4 kernels: tree+fiber = W-wide = one-lane batches"
    ~count:40
    QCheck.(
      pair (make ~print:Fun.id float4_kernel_gen)
        (triple (int_range 1 3) (int_range 1 13)
           (oneofl ~print:string_of_int [ 1; 4; 8 ])))
    (fun (src, (groups, wg, width)) ->
      let n = groups * wg in
      let run engine ?lane_width force_path =
        let fn = lower_one src in
        let v4 = Ssa.Vec (Ssa.F32, 4) in
        let mem = Memory.create () in
        let out = Memory.alloc mem v4 n in
        let a = Memory.alloc mem v4 n and b = Memory.alloc mem v4 n in
        Memory.fill_floats a (fun k -> float_of_int ((k * 7 mod 23) - 11) /. 8.0);
        Memory.fill_floats b (fun k -> float_of_int ((k * 5 mod 17) - 8) /. 4.0);
        let c = Interp.prepare ~engine ?lane_width fn in
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Abuf b; Runtime.Aint n ]
            ~mem ~force_path ()
        in
        (c, (totals, snapshot_buffers mem))
      in
      let cv, v = run Interp.Compiled ~lane_width:width (Runtime.Lanes max_int) in
      let batched =
        match Interp.lane_entry_flags cv with
        | Some f -> Array.for_all Fun.id f
        | None -> false
      in
      let _, t = run Interp.Tree Runtime.Fiber in
      let _, l = run Interp.Compiled (Runtime.Lanes 1) in
      (* [compare], not [=]: a 0/0 lane is NaN on every path alike *)
      batched && compare v t = 0 && compare v l = 0)

(* -- Random kernels with private arrays, divergent loops and int4 -------------------
   Each generated kernel has three private arrays (one filled by a loop
   counter, one indexed by [get_local_id], one live across a uniform
   barrier), a loop whose trip count depends on [get_local_id], a
   divergent store outside any diamond, two barriers inside a uniform loop
   and int4 arithmetic. The compiled default plan at W in {1,4,8} must
   match tree+fiber bit for bit at group sizes that are not multiples of
   W: buffers (private and local scratch included), totals and each
   group's counters and per-work-item event stream on one domain; global
   buffers and totals on two. *)

let random_kernel_gen =
  let open QCheck.Gen in
  let iop = oneofl [ "+"; "-"; "*"; "^"; "&"; "|" ] in
  let small = int_range (-3) 5 in
  let comp = oneofl [ "x"; "y"; "z"; "w" ] in
  let pred = oneofl [ "l % 2 == 0"; "a[g] > 3"; "g < n / 2"; "acc > l" ] in
  map
    (fun ( (o1, o2, o3, o4),
           (o5, o6, o7, o8),
           (c1, c2, c3, (c4, c5)),
           ((k, ca, cb), p, idx) ) ->
      Printf.sprintf
        {|__kernel void k(__global int *out, __global int4 *vout, __global int *dout,
                          __global const int *a, int n, int reps) {
            __local int tile[64];
            int g = get_global_id(0);
            int l = get_local_id(0);
            int pa[4];
            int pb[16];
            int pc[4];
            for (int t = 0; t < 4; t++) pa[t] = a[g] %s (t + %d);
            pb[l] = a[g] %s %d;
            for (int t = 0; t < 4; t++) pc[t] = pa[t] %s pb[l];
            int acc = %d;
            for (int t = 0; t < l %% %d + 1; t++) acc = acc %s pa[t %% 4];
            if (%s) dout[g] = acc;
            int4 v = (int4)(acc, l, g, n) %s (int4)(%d, %d, 1, 2);
            for (int r = 0; r < reps; r++) {
              tile[l] = v.%s %s r;
              barrier(CLK_LOCAL_MEM_FENCE);
              v.%s = v.%s %s tile[(l + 1) %% get_local_size(0)];
              barrier(CLK_LOCAL_MEM_FENCE);
            }
            vout[g] = v %s (int4)(pc[0], pc[1], pc[2], pc[3]);
            out[g] = pc[%d] + acc + get_local_id(2);
          }|}
        o1 c1 o2 c2 o3 c3 k o4 p o5 c4 c5 ca o6 cb cb o7 o8 idx)
    (quad (quad iop iop iop iop) (quad iop iop iop iop)
       (quad small small small (pair small small))
       (triple (triple (int_range 1 5) comp comp) pred (int_range 0 3)))

(* One group's observable trace: its counters and its events, stably
   sorted by work-item so each work-item's program order is kept whatever
   order the schedule interleaved them in. *)
let group_trace (s : Trace.wg_stats) =
  let evs = List.init s.Trace.n_events (Trace.get_event s) in
  ( ( s.Trace.wg_id,
      (s.Trace.int_ops, s.Trace.float_ops, s.Trace.special_ops),
      (s.Trace.branches, s.Trace.barriers, s.Trace.barrier_rounds) ),
    List.stable_sort (fun (x : Trace.event) y -> compare x.Trace.wi y.Trace.wi) evs
  )

let run_random_kernel src ~engine ?lane_width ?force_path ~domains ~n ~wg ~reps
    () =
  let fn = lower_one src in
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.I32 n in
  let vout = Memory.alloc mem (Ssa.Vec (Ssa.I32, 4)) n in
  let dout = Memory.alloc mem Ssa.I32 n in
  let a = Memory.alloc mem Ssa.I32 n in
  Memory.fill_ints a (fun i -> (i * 5 mod 11) - 3);
  let c = Interp.prepare ~engine ?lane_width fn in
  let groups = ref [] in
  let on_group =
    if domains = 1 then Some (fun s -> groups := group_trace s :: !groups)
    else None
  in
  let totals =
    Runtime.launch c
      ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
      ~args:
        [ Runtime.Abuf out; Runtime.Abuf vout; Runtime.Abuf dout;
          Runtime.Abuf a; Runtime.Aint n; Runtime.Aint reps ]
      ~mem ?on_group ~domains ?force_path ()
  in
  let bufs = if domains = 1 then snapshot_buffers mem else snapshot_globals mem in
  (totals, bufs, List.rev !groups)

let prop_random_kernels_agree =
  QCheck.Test.make
    ~name:"random kernels: compiled default plan = tree+fiber (1 and 2 domains)"
    ~count:30
    QCheck.(
      pair (make ~print:Fun.id random_kernel_gen)
        (quad (int_range 1 4) (int_range 1 13)
           (oneofl ~print:string_of_int [ 1; 4; 8 ])
           (int_range 0 2)))
    (fun (src, (groups, wg, width, reps)) ->
      let n = groups * wg in
      let t_tot, t_bufs, t_trace =
        run_random_kernel src ~engine:Interp.Tree ~force_path:Runtime.Fiber
          ~domains:1 ~n ~wg ~reps ()
      in
      let c_tot, c_bufs, c_trace =
        run_random_kernel src ~engine:Interp.Compiled ~lane_width:width
          ~domains:1 ~n ~wg ~reps ()
      in
      let p_tot, p_bufs, _ =
        with_domain_cap 2 (fun () ->
            run_random_kernel src ~engine:Interp.Compiled ~lane_width:width
              ~domains:2 ~n ~wg ~reps ())
      in
      let t_globals =
        List.filter
          (fun (_, sp, _) ->
            match sp with Ssa.Global | Ssa.Constant -> true | _ -> false)
          t_bufs
      in
      t_tot = c_tot
      && compare t_bufs c_bufs = 0
      && compare t_trace c_trace = 0
      && t_tot = p_tot
      && compare t_globals p_bufs = 0)

(* -- Lane verdicts of the suite ---------------------------------------------------
   The plan name stays wg-vec when a region runs one-lane batches, so the
   refined per-region lane flags are pinned here: every region of every
   suite version runs W-wide, except region 0 of AMD-SS, PAB-ST and
   ROD-SC with_lm (their divergent stores). *)

let expected_lane_flags =
  [ ("AMD-SS", [| false; true |], [| true |]);
    ("AMD-MT", [| true; true |], [| true |]);
    ("NVD-MT", [| true; true |], [| true |]);
    ("AMD-RG", [| true; true |], [| true |]);
    ("AMD-MM", [| true; true; true |], [| true |]);
    ("NVD-MM-A", [| true; true; true |], [| true; true; true |]);
    ("NVD-MM-B", [| true; true; true |], [| true; true; true |]);
    ("NVD-MM-AB", [| true; true; true |], [| true |]);
    ("NVD-NBody", [| true; true; true |], [| true |]);
    ("PAB-ST", [| false; true |], [| true |]);
    ("ROD-SC", [| false; true |], [| true |]);
    ("TNG-GEMM4", [| true; true; true |], [| true |]) ]

let test_suite_lane_flags () =
  Alcotest.(check int) "every suite case pinned"
    (List.length Grover_suite.Suite.all)
    (List.length expected_lane_flags);
  List.iter
    (fun (case : Kit.case) ->
      let _, with_lm, without_lm =
        List.find (fun (id, _, _) -> id = case.Kit.id) expected_lane_flags
      in
      List.iter
        (fun (v, vn, want) ->
          let fn, _ = H.compile_version case v in
          let c = Interp.prepare ~engine:Interp.Compiled fn in
          Alcotest.(check (option (array bool)))
            (Printf.sprintf "%s %s lane flags" case.Kit.id vn)
            (Some want) (Interp.lane_entry_flags c))
        [ (H.With_lm, "with-lm", with_lm); (H.Without_lm, "grover", without_lm) ])
    Grover_suite.Suite.all

let suite =
  [ ( "interp",
      [ Alcotest.test_case "vector add" `Quick test_vector_add;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        Alcotest.test_case "conditional" `Quick test_conditional;
        Alcotest.test_case "vector types" `Quick test_vector_types;
        Alcotest.test_case "math builtins" `Quick test_math_builtins ] );
    ( "barriers",
      [ Alcotest.test_case "staging reversal" `Quick test_barrier_reversal;
        Alcotest.test_case "rounds counted" `Quick test_barrier_rounds_counted ] );
    ( "transpose",
      [ Alcotest.test_case "with local memory" `Quick test_transpose_with_local;
        Alcotest.test_case "grover equivalence" `Quick test_transpose_grover_equivalent;
        Alcotest.test_case "grover removes local traffic" `Quick
          test_transpose_grover_no_local_traffic ] );
    ( "parallel",
      [ Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
        Alcotest.test_case "rejects tracing" `Quick test_parallel_rejects_tracing ] );
    ( "launch-validation",
      [ Alcotest.test_case "bad sizes" `Quick test_launch_bad_sizes;
        Alcotest.test_case "bad args" `Quick test_launch_bad_args;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds_trapped;
        Alcotest.test_case "check_geometry" `Quick test_check_geometry ] );
    ("engine-differential", differential_cases);
    ("fastpath-differential", fastpath_cases);
    ("wgloop-differential", wgloop_cases);
    ("wgvec-differential", wgvec_cases);
    ( "wgloop-selection",
      [ Alcotest.test_case "barrier kernels plan as wg-vec" `Quick
          test_wgloop_selected_for_suite;
        Alcotest.test_case "spill kernel forms regions" `Quick
          test_spill_kernel_forms_regions ] );
    ( "default-plan",
      [ Alcotest.test_case "grover versions plan wg-vec" `Quick
          test_grover_versions_plan_wgvec;
        Alcotest.test_case "divergent store plans one-lane batches" `Quick
          test_divergent_store_plans_one_lane;
        Alcotest.test_case "tree engine plans fiber" `Quick
          test_tree_engine_plans_fiber;
        Alcotest.test_case "path_of_string" `Quick test_path_of_string;
        Alcotest.test_case "env_force_path" `Quick test_env_force_path ] );
    ( "private-arrays",
      [ Alcotest.test_case "private array across a barrier = tree+fiber" `Quick
          test_private_array_matches_fibers;
        Alcotest.test_case "private alloca after a barrier = tree+fiber" `Quick
          test_private_alloca_after_barrier ] );
    ( "masked-lanes",
      [ Alcotest.test_case "guarded diamonds classify as masked" `Quick
          test_masked_diamonds_classify;
        Alcotest.test_case "divergent store still bails with a reason" `Quick
          test_divergent_store_still_bails;
        Alcotest.test_case "tail group smaller than lane width" `Quick
          test_masked_tail_smaller_than_width;
        QCheck_alcotest.to_alcotest prop_masked_diamond_agrees ] );
    ( "vector-builtins",
      [ Alcotest.test_case "clamp" `Quick test_vec_clamp;
        Alcotest.test_case "mix" `Quick test_vec_mix;
        Alcotest.test_case "min and max" `Quick test_vec_min_max;
        Alcotest.test_case "abs" `Quick test_vec_abs;
        Alcotest.test_case "dot" `Quick test_vec_dot;
        Alcotest.test_case "mad and fma" `Quick test_vec_mad_fma;
        Alcotest.test_case "fmax" `Quick test_vec_fmax;
        Alcotest.test_case "sqrt" `Quick test_vec_sqrt;
        QCheck_alcotest.to_alcotest prop_float4_kernels_agree ] );
    ( "random-kernels",
      [ QCheck_alcotest.to_alcotest prop_random_kernels_agree ] );
    ( "lane-verdicts",
      [ Alcotest.test_case "suite regions batch as pinned" `Quick
          test_suite_lane_flags ] );
    ( "regions",
      [ Alcotest.test_case "barrier-free is trivial" `Quick
          test_regions_barrier_free;
        Alcotest.test_case "transpose splits in two" `Quick
          test_regions_transpose;
        Alcotest.test_case "divergent barrier falls back" `Quick
          test_regions_divergent_barrier_falls_back;
        Alcotest.test_case "uniform branch qualifies" `Quick
          test_regions_uniform_branch_qualifies ] );
    ("parallel-differential", parallel_cases);
    ( "engine-differential-props",
      [ QCheck_alcotest.to_alcotest prop_engines_agree;
        QCheck_alcotest.to_alcotest prop_domain_count_invariant;
        QCheck_alcotest.to_alcotest prop_spill_preserves_results;
        QCheck_alcotest.to_alcotest prop_lane_width_invariant ] ) ]
