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

(* Kernel [name] of [src], lowered and normalized, ready to launch. *)
let compile_kernel (src : string) ~(name : string) : Interp.compiled =
  match List.find_opt (fun f -> f.Ssa.f_name = name) (Lower.compile src) with
  | Some fn ->
      Grover_passes.Pipeline.normalize fn;
      Interp.prepare fn
  | None -> Alcotest.failf "kernel %s not found in source" name

let launch_1d c mem args ~n ~wg =
  Runtime.launch c
    ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
    ~args ~mem ()

(* -- Basic kernels -------------------------------------------------------- *)

let test_vector_add () =
  let src =
    "__kernel void vadd(__global float *c, __global const float *a, __global const float *b) { int i = get_global_id(0); c[i] = a[i] + b[i]; }"
  in
  let c = compile_kernel src ~name:"vadd" in
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
  let c = compile_kernel src ~name:"s" in
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
  let c = compile_kernel src ~name:"f" in
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
  let c = compile_kernel src ~name:"f" in
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
  let c = compile_kernel src ~name:"f" in
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
  let c = compile_kernel src ~name:"rev" in
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
  let c = compile_kernel src ~name:"f" in
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
  let c = compile_kernel mt_source ~name:"transpose" in
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
  let c = compile_kernel mt_source ~name:"transpose" in
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
  let c = compile_kernel mt_source ~name:"transpose" in
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

(* -- Differential: the default plan vs the tree-walk oracle --------------------
   Every suite kernel, in both versions, must produce bit-identical buffers
   and identical launch totals under the default plan (lane code) and on
   the fiber path, which runs the legacy tree-walking engine (kept exactly
   for this test). *)

module H = Grover_suite.Harness
module Kit = Grover_suite.Kit

(* Buffer contents by allocation id; Private/Local scratch included, so the
   comparison also covers local staging and private arrays. [compare]
   rather than [=] so NaN payloads compare deterministically. *)
let snapshot_buffers (mem : Memory.t) : (int * Ssa.space * Memory.storage) list =
  mem.Memory.buffers
  |> List.map (fun (b : Memory.buffer) -> (b.Memory.bid, b.Memory.space, b.Memory.st))
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* The Global/Constant buffers of [snapshot_buffers]: what a launch on
   more than one domain leaves in [mem], whose local and private scratch
   lives in per-domain memory. *)
let globals_of bufs =
  List.filter
    (fun (_, sp, _) ->
      match sp with Ssa.Global | Ssa.Constant -> true | _ -> false)
    bufs

let snapshot_globals (mem : Memory.t) : (int * Ssa.space * Memory.storage) list =
  globals_of (snapshot_buffers mem)

(* One group's observable trace: its counters (access counters included)
   and its events, stably sorted by work-item so each work-item's program
   order is kept whatever order the schedule interleaved them in. *)
let group_trace (s : Trace.wg_stats) =
  let evs = Trace.events s in
  ( ( s.Trace.wg_id,
      (s.Trace.int_ops, s.Trace.float_ops, s.Trace.special_ops),
      (s.Trace.branches, s.Trace.barriers, s.Trace.barrier_rounds),
      (s.Trace.loads, s.Trace.stores, s.Trace.local_accesses) ),
    List.stable_sort (fun (x : Trace.event) y -> compare x.Trace.wi y.Trace.wi) evs
  )

(* One launch of a suite case at scale 8, on [force_path] or the default
   plan, streaming each group to [on_group]; [sanitize] launches it under
   the sanitizer, which must find nothing. *)
let run_oracle (case : Kit.case) (v : H.version) ?force_path ?on_group
    ?(sanitize = false) () :
    Trace.totals * (int * Ssa.space * Memory.storage) list * (unit, string) result =
  let fn, _ = H.compile_version case v in
  let compiled = Interp.prepare fn in
  let w = case.Kit.mk ~scale:8 in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let totals =
    if sanitize then (
      let totals, findings =
        Runtime.run_sanitized compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem
          ?force_path ()
      in
      if findings <> [] then
        Alcotest.failf "sanitizer finding: %s"
          (Sanitize.message (List.hd findings));
      totals)
    else
      Runtime.launch compiled ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ?force_path
        ?on_group ()
  in
  (totals, snapshot_buffers w.Kit.mem, w.Kit.check ())

let check_engines_agree (case : Kit.case) (v : H.version) () =
  let t_tot, t_bufs, t_valid = run_oracle case v ~force_path:Runtime.Fiber () in
  let c_tot, c_bufs, c_valid = run_oracle case v () in
  (match t_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "tree engine invalid output: %s" m);
  (match c_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "default plan invalid output: %s" m);
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
      let run force_path =
        let fn =
          match Lower.compile diff_prop_source with
          | [ f ] -> f
          | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let c = Interp.prepare fn in
        let mem = Memory.create () in
        let out = Memory.alloc mem Ssa.F32 n in
        let a = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats a (fun i -> float_of_int (i - 3) /. 7.0);
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
            ~mem ?force_path ()
        in
        (totals, Memory.to_float_array out)
      in
      let t_tot, t_out = run (Some Runtime.Fiber) in
      let c_tot, c_out = run None in
      t_tot = c_tot && compare t_out c_out = 0)

(* -- Differential: GROVER_FORCE_PATH=wg-vec vs tree+fiber ------------------------
   The environment's wg-vec request runs every suite version, both kernel
   versions, as one lane batch per work-group (the suite's groups hold at
   most 256 work-items), and must reproduce the tree engine under the
   fiber scheduler: bit-identical buffers (local and private scratch
   included) and identical launch totals (so the trace stream — cost
   model, barrier rounds — is unchanged). *)

let has_barrier (c : Interp.compiled) : bool =
  Ssa.fold_instrs
    (fun acc i -> acc || match i.Ssa.op with Ssa.Barrier _ -> true | _ -> false)
    false c.Interp.fn

let path_t =
  Alcotest.testable
    (fun ppf -> function
      | Runtime.Lanes -> Format.fprintf ppf "Lanes"
      | Runtime.Fiber -> Format.fprintf ppf "Fiber")
    ( = )

(* Run [f] with GROVER_FORCE_PATH set to [v], restoring it afterwards. *)
let with_force_path (v : string) (f : unit -> 'a) : 'a =
  let old = Sys.getenv_opt "GROVER_FORCE_PATH" in
  Unix.putenv "GROVER_FORCE_PATH" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GROVER_FORCE_PATH" (Option.value old ~default:""))
    f

let check_against_fibers ~(label : string) (case : Kit.case) (v : H.version)
    (run : unit -> Trace.totals * _ * (unit, string) result) =
  let d_tot, d_bufs, d_valid = run () in
  let f_tot, f_bufs, f_valid =
    run_oracle case v ~force_path:Runtime.Fiber ()
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
  let fn, _ = H.compile_version case v in
  let c = Interp.prepare fn in
  let w = case.Kit.mk ~scale:8 in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  with_force_path "wg-vec" (fun () ->
      Alcotest.check path_t "GROVER_FORCE_PATH=wg-vec plan" Runtime.Lanes
        (Runtime.plan c ~cfg ()).Runtime.path;
      check_against_fibers ~label:"GROVER_FORCE_PATH=wg-vec" case v (fun () ->
          run_oracle case v ()))

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

(* -- Differential: sanitized and relaunched lane batches vs tree+fiber -----------
   Lane batches under the sanitizer, which only observes: it must find
   nothing and change no result. And one compiled kernel enqueued twice on
   lane batches through a one-domain queue, each time on a fresh workload
   of the same geometry: the second launch rebinds its arguments into the
   execution context (lane state included) that the domain cached for the
   first. Both must equal tree+fiber on global buffers and totals. *)

let check_wgloop_agrees (case : Kit.case) (v : H.version) () =
  check_against_fibers ~label:"sanitized lane batches" case v (fun () ->
      run_oracle case v ~force_path:Runtime.Lanes ~sanitize:true ())

let check_relaunch_agrees (case : Kit.case) (v : H.version) () =
  let fn, _ = H.compile_version case v in
  let c = Interp.prepare fn in
  let f_tot, f_bufs, _ = run_oracle case v ~force_path:Runtime.Fiber () in
  let q = Queue.create ~domains:1 () in
  List.iter
    (fun label ->
      let w = case.Kit.mk ~scale:8 in
      let cfg =
        { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
      in
      Alcotest.check path_t (label ^ ": planned path") Runtime.Lanes
        (Runtime.plan c ~cfg ~force_path:Runtime.Lanes ()).Runtime.path;
      let ev =
        Queue.enqueue_nd_range q c ~cfg ~args:w.Kit.args
          ~force_path:Runtime.Lanes ()
      in
      Queue.finish q;
      (match w.Kit.check () with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s invalid output: %s" label m);
      Alcotest.(check bool) (label ^ ": totals = tree+fiber's") true
        (Event.totals ev = f_tot);
      Alcotest.(check bool) (label ^ ": global buffers = tree+fiber's") true
        (compare (snapshot_globals w.Kit.mem) (globals_of f_bufs) = 0))
    [ "first launch"; "relaunch" ]

let wgloop_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.concat_map
        (fun (v, vn) ->
          List.map
            (fun (check, cn) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s %s" case.Kit.id vn cn)
                `Quick (check case v))
            [ (check_wgloop_agrees, "sanitized");
              (check_relaunch_agrees, "relaunched") ])
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

(* -- Differential: W-wide batches vs the fiber scheduler -----------------------
   Lane batching changes the innermost execution representation
   (struct-of-arrays lane slots, uniform values computed once per batch),
   so it is held to the same standard: bit-identical buffers and identical
   launch totals against tree+fiber, over the whole suite x both kernel
   versions, whatever GROVER_FORCE_PATH says; traced, also each group's
   counters and per-work-item event stream, in group order (what the
   performance simulator consumes). *)

let check_wgvec_agrees (case : Kit.case) (v : H.version) (traced : bool) () =
  let runs =
    List.map
      (fun (p, pn) ->
        let groups = ref [] in
        let on_group =
          if traced then Some (fun s -> groups := group_trace s :: !groups)
          else None
        in
        let tot, bufs, valid = run_oracle case v ~force_path:p ?on_group () in
        (match valid with
        | Ok () -> ()
        | Error m -> Alcotest.failf "%s path invalid output: %s" pn m);
        (pn, tot, bufs, List.rev !groups))
      [ (Runtime.Lanes, "W-wide"); (Runtime.Fiber, "fiber") ]
  in
  match runs with
  | (_, ref_tot, ref_bufs, ref_groups) :: rest ->
      if traced then
        Alcotest.(check int) "W-wide: one trace per group" ref_tot.Trace.t_groups
          (List.length ref_groups);
      List.iter
        (fun (pn, tot, bufs, groups) ->
          Alcotest.(check bool)
            (Printf.sprintf "W-wide vs %s: identical launch totals" pn)
            true (ref_tot = tot);
          Alcotest.(check bool)
            (Printf.sprintf "W-wide vs %s: bit-identical buffers" pn)
            true
            (compare ref_bufs bufs = 0);
          if traced then
            Alcotest.(check bool)
              (Printf.sprintf "W-wide vs %s: identical group traces" pn)
              true
              (compare ref_groups groups = 0))
        rest
  | [] -> assert false

let wgvec_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.concat_map
        (fun (v, vn) ->
          List.map
            (fun (traced, tn) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s %s" case.Kit.id vn tn)
                `Quick (check_wgvec_agrees case v traced))
            [ (false, "compiled"); (true, "traced") ])
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

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
      let c = Interp.prepare fn in
      if has_barrier c then begin
        incr barrier_kernels;
        Alcotest.(check bool)
          (Printf.sprintf "%s: region metadata compiled" case.Kit.id)
          true (c.Interp.code <> None);
        let w = case.Kit.mk ~scale:8 in
        let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
        if Runtime.batch_width cfg (Runtime.plan c ~cfg ~force_path:Runtime.Lanes ()).Runtime.path > 1
        then incr wide_kernels;
        if not forced then
          let plan = Runtime.plan c ~cfg () in
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
   With no override a kernel with lane code plans one lane batch per
   work-group of at most 256 work-items, with or without barriers (a
   barrier-free kernel is the one-region case). So Grover's transformed
   kernels — the without_lm side of every Fig. 10 race — must plan W-wide
   batches. A kernel with a region that cannot run W-wide, a larger group
   and a fiber request plan the fiber scheduler (the tree engine). *)

(* Same kernel as examples/kernels/saxpy.cl: its bounds-guarded store is
   a divergent triangle, so its only region runs W-wide batches with the
   store in a masked arm. *)
let saxpy_source =
  {|__kernel void saxpy(__global float *y, __global const float *x, float a,
                        int n) {
      int i = get_global_id(0);
      if (i < n) {
        y[i] = a * x[i] + y[i];
      }
    }|}

let check_default_plan ~(label : string) (c : Interp.compiled)
    ~(cfg : Runtime.launch_config) (want : Runtime.path) =
  Alcotest.check path_t (label ^ ": default path") want (Runtime.default_path c);
  (* [plan] with no arguments must agree unless the environment forces a
     path for the whole run. *)
  match Runtime.env_force_path () with
  | None ->
      Alcotest.check path_t (label ^ ": planned path") want (Runtime.plan c ~cfg ()).Runtime.path
  | Some _ -> ()

let suite_cfg (case : Kit.case) : Runtime.launch_config =
  let w = case.Kit.mk ~scale:8 in
  { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }

(* A launch runs its group as one batch: a 64-item group (AMD-SS, AMD-MT,
   AMD-MM, NVD-NBody, ROD-SC) runs 64 lanes of code compiled for 256. *)
let test_grover_versions_plan_wgvec () =
  List.iter
    (fun (case : Kit.case) ->
      let fn, _ = H.compile_version case H.Without_lm in
      let c = Interp.prepare fn and cfg = suite_cfg case in
      let lx, ly, lz = cfg.Runtime.local in
      Alcotest.(check int) (case.Kit.id ^ ": lanes per batch") (lx * ly * lz)
        (Runtime.batch_width cfg Runtime.Lanes);
      check_default_plan ~label:case.Kit.id c ~cfg Runtime.Lanes)
    Grover_suite.Suite.all

let test_divergent_store_plans_wide () =
  let fn =
    match Lower.compile saxpy_source with [ f ] -> f | _ -> assert false
  in
  Grover_passes.Pipeline.normalize fn;
  let c = Interp.prepare fn in
  Alcotest.(check bool) "saxpy is barrier-free" false (has_barrier c);
  Alcotest.(check bool) "saxpy's one region is W-wide" true (c.Interp.code <> None);
  check_default_plan ~label:"saxpy" c
    ~cfg:{ Runtime.global = (64, 1, 1); local = (16, 1, 1); queues = 1 }
    Runtime.Lanes

(* The tree engine's one switch: every suite kernel builds lane code, and
   a fiber request — [~force_path] for a launch, [GROVER_FORCE_PATH] for
   the process — plans the fiber scheduler. *)
let test_fiber_request_plans_fiber () =
  List.iter
    (fun (case : Kit.case) ->
      List.iter
        (fun v ->
          let fn, _ = H.compile_version case v in
          let c = Interp.prepare fn and cfg = suite_cfg case in
          let label what = Printf.sprintf "%s: %s" case.Kit.id what in
          Alcotest.(check bool) (label "lane code") true (c.Interp.code <> None);
          Alcotest.check path_t (label "~force_path:Fiber") Runtime.Fiber
            (Runtime.plan c ~cfg ~force_path:Runtime.Fiber ()).Runtime.path;
          with_force_path "fiber" (fun () ->
              Alcotest.check path_t (label "GROVER_FORCE_PATH=fiber")
                Runtime.Fiber (Runtime.plan c ~cfg ()).Runtime.path))
        [ H.With_lm; H.Without_lm ])
    Grover_suite.Suite.all

(* The GROVER_FORCE_PATH vocabulary: [wg-vec] asks for lane batches,
   [fiber] for the fiber scheduler, and anything else — the
   retired one-work-item schedulers' names and spelling variants included
   — is rejected. *)
let test_path_of_string () =
  let check s want =
    Alcotest.(check (option path_t)) s want (Runtime.path_of_string s)
  in
  check "wg-vec" (Some Runtime.Lanes);
  check "fiber" (Some Runtime.Fiber);
  List.iter
    (fun s -> check s None)
    [ ""; "bogus"; "lanes"; "WG-VEC"; "wgvec"; "wg_vec"; "fibers"; "wg-loop";
      "wgloop"; "wg_loop"; "fiberless" ]

(* GROVER_FORCE_PATH is read through [env_force_path] alone: unset or
   empty pins nothing, a known name pins its path, and anything else is a
   launch error rather than a silent default. *)
let test_env_force_path () =
  let check v want =
    with_force_path v (fun () ->
        Alcotest.(check (option path_t)) v want (Runtime.env_force_path ()))
  in
  check "" None;
  check "wg-vec" (Some Runtime.Lanes);
  check "fiber" (Some Runtime.Fiber);
  List.iter
    (fun v ->
      with_force_path v (fun () ->
          match Runtime.env_force_path () with
          | exception Runtime.Launch_error m ->
              Alcotest.(check string) "the error names the value"
                (Printf.sprintf
                   "unknown GROVER_FORCE_PATH %S (expected wg-vec or fiber)" v)
                m
          | _ -> Alcotest.failf "GROVER_FORCE_PATH=%s must be rejected" v))
    [ "bogus"; "wg-loop"; "fiberless" ]

let lower_one src =
  let fn = match Lower.compile src with [ f ] -> f | _ -> assert false in
  Grover_passes.Pipeline.normalize fn;
  fn

(* A kernel with an int, a float and a boxed (vector) value all live
   across its barrier: every kind of lane slot carries a value over it. *)
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
      Alcotest.(check int) "two regions" 2 i.Regions.n_regions
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r

(* A 1-D NDRange of [n] work-items in groups of [wg]. *)
let cfg_1d ~n ~wg = { Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }

(* Its barrier-free twin: the same arguments and kinds of value, and a
   global read in place of the exchange through local memory. *)
let every_kind_barrier_free_source =
  {|__kernel void k(__global float4 *vout, __global float *sout,
                    __global const float4 *a, __global const float *b, int n) {
      int l = get_local_id(0);
      int g = get_global_id(0);
      int li = l * 2 + 1;
      float fv = b[g] * 0.5f;
      float4 v = a[g];
      sout[g] = b[(g + 1) % n] + fv + (float)li;
      vout[g] = v * v;
    }|}

(* One launch of [c], compiled from either kernel above, over [n]
   work-items in groups of [wg]: its totals and buffers. *)
let launch_every_kind (c : Interp.compiled) ?force_path ~n ~wg () =
  let mem = Memory.create () in
  let vout = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) n in
  let sout = Memory.alloc mem Ssa.F32 n in
  let a = Memory.alloc mem (Ssa.Vec (Ssa.F32, 4)) n in
  let b = Memory.alloc mem Ssa.F32 n in
  Memory.fill_floats a (fun i -> float_of_int (i - 5) /. 3.0);
  Memory.fill_floats b (fun i -> float_of_int (i * 7 mod 11) /. 4.0);
  let totals =
    Runtime.launch c ~cfg:(cfg_1d ~n ~wg)
      ~args:
        [ Runtime.Abuf vout; Runtime.Abuf sout; Runtime.Abuf a; Runtime.Abuf b;
          Runtime.Aint n ]
      ~mem ?force_path ()
  in
  (totals, snapshot_buffers mem)

(* Values live across a barrier stay in the lane slots: under random
   launch shapes the default plan runs each work-group of the every-kind
   kernel as one lane batch, and agrees with tree+fiber on buffers and
   totals. *)
let prop_values_stay_in_lane_slots =
  QCheck.Test.make ~name:"values live across a barrier stay in lane slots"
    ~count:25
    QCheck.(pair (int_range 1 8) (int_range 1 64))
    (fun (groups, wg) ->
      let n = groups * wg in
      let c = Interp.prepare (lower_one spill_prop_source) in
      let one_batch =
        Runtime.env_force_path () <> None
        || (Runtime.plan c ~cfg:(cfg_1d ~n ~wg) ()).Runtime.path = Runtime.Lanes
      in
      one_batch
      && compare
           (launch_every_kind c ~n ~wg ())
           (launch_every_kind c ~force_path:Runtime.Fiber ~n ~wg ())
         = 0)

(* The group size is a launch parameter, not a semantic one for these
   kernels: every group size from 1 to 256 runs as one lane batch under
   the forced wg-vec plan, must really plan lane batches, and is compared
   against the fiber scheduler bit for bit, for the barrier-free twin and
   for the every-kind kernel (whose [__local] array holds 64 work-items'
   values). *)
let prop_group_size_invariant =
  QCheck.Test.make ~name:"group sizes 1-256 on lane batches are output-invariant"
    ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 Interp.max_lane_width))
    (fun (groups, wg) ->
      let agrees src ~wg =
        let n = groups * wg in
        let c = Interp.prepare (lower_one src) in
        (Runtime.plan c ~cfg:(cfg_1d ~n ~wg) ~force_path:Runtime.Lanes ()).Runtime.path
        = Runtime.Lanes
        && compare
             (launch_every_kind c ~force_path:Runtime.Lanes ~n ~wg ())
             (launch_every_kind c ~force_path:Runtime.Fiber ~n ~wg ())
           = 0
      in
      agrees every_kind_barrier_free_source ~wg
      && agrees spill_prop_source ~wg:(1 + ((wg - 1) mod 64)))

(* -- Masked lane execution (divergent diamonds) -------------------------------
   A guarded-diamond kernel: a boundary clamp (triangle — one arm is the
   fall-through edge) and a two-armed pure value diamond, both divergent,
   plus a barrier so W-wide batches and fibers execute distinct
   machinery. The diamonds must classify as lane-capable-with-mask and
   the masked batch must stay bit-identical to the one-work-item
   oracle. *)

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

(* A guarded store is a masked arm; a loop whose trip count differs per
   work-item is not a diamond, and its region still bails with the
   branch's location. *)
let test_divergent_store_masked_loop_bails () =
  let region0 src =
    match Regions.form (lower_one src) with
    | Regions.Formed i -> i.Regions.lane_entries.(0)
    | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r
  in
  (match
     region0
       {|__kernel void f(__global int *out, int n) {
          __local int tmp[8];
          int l = get_local_id(0);
          if (l < 4) { tmp[l] = l; }
          barrier(CLK_LOCAL_MEM_FENCE);
          out[get_global_id(0)] = tmp[l % 4] + n;
        }|}
   with
  | Regions.Lane_masked 1 -> ()
  | lv ->
      Alcotest.failf "a guarded store must be one masked diamond, got: %s"
        (Regions.verdict_string lv));
  match
    region0
      {|__kernel void f(__global int *out, int n) {
          int l = get_local_id(0);
          int acc = 0;
          for (int t = 0; t < l; t++) { acc = acc + t; }
          out[get_global_id(0)] = acc + n;
        }|}
  with
  | Regions.Scalar r ->
      let want = "divergent branch arms do not reconverge at " in
      Alcotest.(check bool)
        (Printf.sprintf "bail reason names the loop branch: %s" r)
        true
        (String.length r > String.length want
        && String.sub r 0 (String.length want) = want)
  | lv ->
      Alcotest.failf "a divergent loop must stay scalar, got: %s"
        (Regions.verdict_string lv)

let run_masked_kernel ~force_path ~n ~wg () =
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
  let c = Interp.prepare fn in
  let totals =
    Runtime.launch c
      ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
      ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
      ~mem ?force_path ()
  in
  (c, totals, snapshot_buffers mem)

(* A group smaller than the lane width W = 256 must run as one
   group-wide batch — same buffers and totals as tree+fiber — for groups
   of 1 to 9 work-items and of 63 and 64 (the most its [__local] array
   holds), and the kernel must actually run lane batches (not a silent
   fallback). *)
let test_masked_tail_smaller_than_width () =
  List.iter
    (fun wg ->
      let n = wg * 3 in
      let cv, v_tot, v_bufs =
        run_masked_kernel ~force_path:(Some Runtime.Lanes) ~n ~wg ()
      in
      Alcotest.check path_t
        (Printf.sprintf "wg=%d: one batch per group" wg)
        Runtime.Lanes
        (Runtime.plan cv ~cfg:(cfg_1d ~n ~wg) ~force_path:Runtime.Lanes ()).Runtime.path;
      let _, f_tot, f_bufs = run_masked_kernel ~force_path:(Some Runtime.Fiber) ~n ~wg () in
      Alcotest.(check bool)
        (Printf.sprintf "wg=%d: W-wide totals = fiber totals" wg)
        true (v_tot = f_tot);
      Alcotest.(check bool)
        (Printf.sprintf "wg=%d: buffers vs fiber" wg)
        true
        (compare v_bufs f_bufs = 0))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 63; 64 ]

(* Random guarded-diamond kernels. A pure two-armed diamond with a random
   predicate and random pure arms, behind a random clamp guard, at group
   sizes of 1 to 64 (the most its [__local] array holds; a group runs as
   one batch): masked W-wide batches must agree with the fiber scheduler
   bit for bit. *)
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
    ~name:"masked W-wide = fiber on guarded diamonds"
    ~count:15
    QCheck.(
      pair
        (triple (int_range 0 3) (int_range 0 2) (int_range 0 2))
        (pair (int_range 1 4) (int_range 1 64)))
    (fun ((p, t, e), (groups, wg)) ->
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
      let run force_path =
        let fn =
          match Lower.compile src with [ f ] -> f | _ -> assert false
        in
        Grover_passes.Pipeline.normalize fn;
        let mem = Memory.create () in
        let out = Memory.alloc mem Ssa.F32 n in
        let a = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats a (fun i -> float_of_int (i * 7 mod 13) /. 6.0);
        let c = Interp.prepare fn in
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint n ]
            ~mem ~force_path ()
        in
        (totals, snapshot_buffers mem)
      in
      run Runtime.Lanes = run Runtime.Fiber)

(* -- Private arrays across a barrier ---------------------------------------------
   Same kernel as examples/kernels/private_array.cl: a private array
   written before a uniform barrier and read after it. Region 0 allocates
   it, so it cannot run as a lane batch: the kernel has no lane code and
   its default plan is the fiber scheduler. That plan must match
   tree+fiber on buffers (the private arrays included), totals and every
   Private- and Local-space trace event: same work-item, address and
   direction, in each work-item's program order. The trace does not
   depend on the hardware: every group has group 0's local and private
   addresses, and [queues] changes nothing. *)

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
  let run ?(queues = 1) force_path =
    let fn = lower_one private_array_source in
    let c = Interp.prepare fn in
    let mem = Memory.create () in
    let out = Memory.alloc mem Ssa.F32 n in
    let inp = Memory.alloc mem Ssa.F32 n in
    Memory.fill_floats inp (fun i -> float_of_int ((i * 7 mod 11) - 4) /. 4.0);
    let priv = ref [] in
    let on_group (s : Trace.wg_stats) =
      let evs =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.Trace.space = Ssa.Private || e.Trace.space = Ssa.Local then
              Some (e.Trace.wi, e.Trace.space, e.Trace.addr, e.Trace.is_write)
            else None)
          (Trace.events s)
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
  let c, d_tot, d_bufs, d_priv = run None in
  let _, f_tot, f_bufs, f_priv = run (Some Runtime.Fiber) in
  let _, _, _, d_priv8 = run ~queues:8 None in
  let _, _, _, f_priv8 = run ~queues:8 (Some Runtime.Fiber) in
  (match c.Interp.regions with
  | Regions.Formed i -> (
      match i.Regions.lane_entries.(0) with
      | Regions.Scalar r ->
          Alcotest.(check bool)
            (Printf.sprintf "region 0 bails on the private alloca: %s" r)
            true
            (String.length r >= 14 && String.sub r 0 14 = "private alloca")
      | lv ->
          Alcotest.failf "region 0 must bail on its private alloca, got: %s"
            (Regions.verdict_string lv))
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r);
  Alcotest.(check bool) "no lane code" true (Option.is_none c.Interp.code);
  Alcotest.check path_t "default plan" Runtime.Fiber (Runtime.default_path c);
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
    [ ("default plan, 8 queues", d_priv8); ("fiber, 8 queues", f_priv8) ];
  Alcotest.(check bool) "8 queues trace what 1 queue traces (default plan)" true (d_priv8 = d_priv);
  Alcotest.(check bool) "8 queues trace what 1 queue traces (fiber)" true (f_priv8 = f_priv)

(* Lowering puts every alloca in the entry block, so only hand-built IR
   allocates in a later region: there the work-item's bump offset must
   continue from where its region-0 allocations left it. Both regions
   allocate, so the kernel has no lane code and its default plan is the
   fiber scheduler. *)
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
  let run force_path =
    let c = Interp.prepare fn in
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
  let c, d_tot, d_bufs, d_priv = run None in
  let _, f_tot, f_bufs, f_priv = run (Some Runtime.Fiber) in
  Alcotest.(check bool) "no lane code" true (Option.is_none c.Interp.code);
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
      Alcotest.(check int) "one barrier" 1 (Array.length i.Regions.barriers)
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
    compile_kernel "__kernel void f(__global int *a) { a[0] = 1; }"
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
   work-group size positive, at most 4096 work-items in a group, every
   global size a multiple of the group's. A queue
   rejects the same geometries with the same message when they are
   enqueued (a valid one is not enqueued: it would wait in the shared
   scheduler for another test's drain). *)
let test_check_geometry () =
  let c =
    compile_kernel "__kernel void f(__global int *a) { a[0] = 1; }"
      ~name:"f"
  in
  let args = [ Runtime.Abuf (Memory.alloc (Memory.create ()) Ssa.I32 4) ] in
  let check label ~global ~local want =
    let cfg = { Runtime.global; local; queues = 1 } in
    let error f =
      match f () with () -> None | exception Runtime.Launch_error m -> Some m
    in
    Alcotest.(check (option string)) label want
      (error (fun () -> Runtime.check_geometry cfg));
    if want <> None then
      Alcotest.(check (option string)) (label ^ ", enqueued") want
        (error (fun () ->
             ignore (Queue.enqueue_nd_range (Queue.create ()) c ~cfg ~args ())))
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
  check "z not a multiple" ~global:(8, 1, 3) ~local:(8, 1, 2) multiple;
  let too_big l = Some ("a work-group holds at most 4096 work-items, not " ^ l) in
  check "4096 items" ~global:(4096, 2, 1) ~local:(4096, 1, 1) None;
  check "16 x 16 x 16 items" ~global:(16, 16, 16) ~local:(16, 16, 16) None;
  check "4097 items" ~global:(4097, 1, 1) ~local:(4097, 1, 1) (too_big "4097 x 1 x 1");
  check "64 x 64 x 2 items" ~global:(64, 64, 2) ~local:(64, 64, 2) (too_big "64 x 64 x 2")

let test_launch_bad_args () =
  let c =
    compile_kernel "__kernel void f(__global int *a, int n) { a[0] = n; }"
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

(* Every access shape traps on its first out-of-bounds index with
   [Memory.check]'s message: int, float and float4 loads and stores at a
   varying, a uniform, an argument and a constant index (work-item 0 of
   group 0 always reaches element 99 of the 4-element buffer [a] first),
   plus a store of a constant, on 8-lane batches (groups of 8), one-lane
   batches (groups of 1) and tree+fiber. A sanitized launch reports the
   same access as its one GRV-SAN-OOB finding instead. *)
let oob_kernels =
  let body t idx value =
    Printf.sprintf
      {|__kernel void k(__global %s *a, __global %s *out, int n) {
          int g = get_global_id(0);
          %s;
        }|}
      t t
      (match value with
      | None -> Printf.sprintf "out[g] = a[%s]" idx
      | Some v -> Printf.sprintf "a[%s] = %s" idx v)
  in
  ("int store of a constant", Ssa.I32, body "int" "99" (Some "1"))
  :: List.concat_map
       (fun (t, elem, value) ->
         List.concat_map
           (fun (shape, idx) ->
             [ (Printf.sprintf "%s load, %s index" t shape, elem, body t idx None);
               ( Printf.sprintf "%s store, %s index" t shape,
                 elem,
                 body t idx (Some value) ) ])
           [ ("varying", "g + 99"); ("uniform", "get_group_id(0) + 99");
             ("argument", "n"); ("constant", "99") ])
       [ ("int", Ssa.I32, "g"); ("float", Ssa.F32, "(float)g");
         ("float4", Ssa.Vec (Ssa.F32, 4), "(float4)((float)g)") ]

let test_out_of_bounds_trapped () =
  let want = "buffer 0 (global): element index 99 out of bounds [0,4)" in
  List.iter
    (fun (name, elem, src) ->
      List.iter
        (fun (path, force_path, wg) ->
          let setup () =
            let mem = Memory.create () in
            let a = Memory.alloc mem elem 4 in
            let out = Memory.alloc mem elem 8 in
            ( Interp.prepare (lower_one src),
              { Runtime.global = (8, 1, 1); local = (wg, 1, 1); queues = 1 },
              [ Runtime.Abuf a; Runtime.Abuf out; Runtime.Aint 99 ],
              mem )
          in
          let label = Printf.sprintf "%s on %s" name path in
          (let c, cfg, args, mem = setup () in
           Alcotest.(check int) (label ^ ": batch width")
             (if force_path = Runtime.Fiber then 1 else wg)
             (Runtime.batch_width cfg (Runtime.plan c ~cfg ~force_path ()).Runtime.path);
           match Runtime.launch c ~cfg ~args ~mem ~force_path () with
           | exception Invalid_argument m -> Alcotest.(check string) label want m
           | _ -> Alcotest.failf "%s: the access did not trap" label);
          let c, cfg, args, mem = setup () in
          let _, findings = Runtime.run_sanitized c ~cfg ~args ~mem ~force_path () in
          Alcotest.(check (list (pair string (triple string int int))))
            (label ^ ", sanitized")
            [ ("GRV-SAN-OOB", ("global buffer 'a'", 99, 4)) ]
            (List.map
               (fun (f : Sanitize.finding) ->
                 ( Sanitize.code_of_kind f.Sanitize.f_kind,
                   (f.Sanitize.f_buffer, f.Sanitize.f_index, f.Sanitize.f_extent) ))
               findings))
        [ ("8-lane batches", Runtime.Lanes, 8);
          ("one-lane batches", Runtime.Lanes, 1);
          ("tree+fiber", Runtime.Fiber, 8) ])
    oob_kernels

(* -- Vector builtins on float4 ---------------------------------------------------
   One test per builtin family: the tree engine and the compiled default
   plan in groups of 6 and of 1 work-item must all produce the
   host-computed components bit for bit. *)

let vec_n = 12

let vec_inputs () =
  ( Array.init (vec_n * 4) (fun k -> float_of_int ((k * 7 mod 19) - 9) /. 4.0),
    Array.init (vec_n * 4) (fun k -> float_of_int ((k * 5 mod 13) - 6) /. 3.0),
    Array.init (vec_n * 4) (fun k -> float_of_int ((k * 3 mod 11) - 2) /. 2.0) )

let run_vec_builtin ~(scalar_out : bool) ~(expr : string) ?force_path ~wg () :
    float array =
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
  let c = Interp.prepare fn in
  ignore
    (Runtime.launch c
       ~cfg:{ Runtime.global = (vec_n, 1, 1); local = (wg, 1, 1); queues = 1 }
       ~args:(Runtime.Abuf out :: bufs) ~mem ?force_path ());
  Memory.to_float_array out

let check_vec_builtin ?(scalar_out = false) ~(expr : string)
    (expected : float array -> float array -> float array -> float array) =
  let xs, ys, zs = vec_inputs () in
  let want = expected xs ys zs in
  List.iter
    (fun (label, force_path, wg) ->
      let got = run_vec_builtin ~scalar_out ~expr ?force_path ~wg () in
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s = host" expr label)
        true
        (compare got want = 0))
    [ ("tree", Some Runtime.Fiber, 6);
      ("compiled wg-vec", None, 6);
      ("compiled one-item groups", None, 1) ]

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
   around a loop, one live across a uniform barrier and one chosen inside a
   pure divergent diamond. A float compare kept as an int picks, per lane,
   [sqrt(fabs(..))] or [mad]/[fma] and a [__local] index; a division has a
   batch-uniform dividend or divisor. These ops and shapes have no direct
   loop in the lane compiler. Two accesses read a batch-uniform column: a
   store of a group-uniform float4 to [__local], and a [__local] load at
   the counter of a uniform loop (NBody's [sh[j]]). The tree engine under
   fibers and the compiled lane code must agree bit for bit on buffers,
   totals and each group's counters and per-work-item event stream, at
   group sizes of 1 to 32 (the most its [__local] array holds); the lane
   run must really plan one batch per group. *)

let float4_kernel_gen =
  let open QCheck.Gen in
  let bop = oneofl [ "+"; "-"; "*"; "/" ] in
  let cmp = oneofl [ "x"; "y"; "z"; "w" ] in
  let fcmp = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
  (* batch-uniform divisors and dividends *)
  let hoisted = oneofl [ "2.5f"; "(float)n"; "(float4)(1.5f, -2.0f, 0.5f, 3.0f)" ] in
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
    (fun ( ((o1, o2, o3, o4), (c1, c2, c3), (l1, l2), (trip, p, o5)),
           ((c4, fc, c5), (fma, h1, h2)) ) ->
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
            int c = x.%s %s y.%s;
            float4 z = c ? sqrt(fabs(v)) : %s(x, y, acc);
            float4 q = %s / z + z / %s;
            tile[l] = v;
            tile[32 + l] = (float4)((float)n, 0.5f, (float)get_group_id(0), -1.0f);
            barrier(CLK_LOCAL_MEM_FENCE);
            float4 w = tile[c ? 32 + l : (l + 1) %% get_local_size(0)];
            for (int j = 0; j < get_local_size(0); j++) w = w %s tile[j];
            out[g] = w %s acc + x * (float)n + tile[32 + l] + q;
          }|}
        l1 trip o1 o2 c1 c2 c3 p o3 l2 c4 fc c5 fma h1 h2 o5 o4)
    (pair
       (quad (quad bop bop bop bop) (triple cmp cmp cmp) (pair lit lit)
          (triple (int_range 0 3) pred bop))
       (pair (triple cmp fcmp cmp) (triple (oneofl [ "mad"; "fma" ]) hoisted hoisted)))

let prop_float4_kernels_agree =
  QCheck.Test.make
    ~name:"random float4 kernels: tree+fiber = W-wide batches"
    ~count:40
    QCheck.(pair (make ~print:Fun.id float4_kernel_gen) (pair (int_range 1 3) (int_range 1 32)))
    (fun (src, (groups, wg)) ->
      let n = groups * wg in
      let run force_path =
        let fn = lower_one src in
        let v4 = Ssa.Vec (Ssa.F32, 4) in
        let mem = Memory.create () in
        let out = Memory.alloc mem v4 n in
        let a = Memory.alloc mem v4 n and b = Memory.alloc mem v4 n in
        Memory.fill_floats a (fun k -> float_of_int ((k * 7 mod 23) - 11) /. 8.0);
        Memory.fill_floats b (fun k -> float_of_int ((k * 5 mod 17) - 8) /. 4.0);
        let c = Interp.prepare fn in
        let groups = ref [] in
        let totals =
          Runtime.launch c
            ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
            ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Abuf b; Runtime.Aint n ]
            ~mem ~domains:1
            ~on_group:(fun s -> groups := group_trace s :: !groups)
            ~force_path ()
        in
        (c, (totals, snapshot_buffers mem, List.rev !groups))
      in
      let cv, v = run Runtime.Lanes in
      let batched =
        (Runtime.plan cv ~cfg:(cfg_1d ~n ~wg) ~force_path:Runtime.Lanes ()).Runtime.path
        = Runtime.Lanes
      in
      let _, t = run Runtime.Fiber in
      (* [compare], not [=]: a 0/0 lane is NaN on every path alike *)
      batched && compare v t = 0)

(* -- Random kernels with private arrays, divergent loops and int4 -------------------
   Each generated kernel has three arrays of its own per work-item (one
   filled by a loop counter, one indexed by [get_local_id], one read
   after a uniform loop), a loop whose trip count is drawn, a guarded
   store before that uniform loop and one inside it, where it runs in a
   masked arm, and int4 arithmetic. Its int ops include shifts, division
   and remainder by an odd (so nonzero) divisor, a compare with a
   batch-uniform left operand, and int and float selects on varying
   compares: ops and shapes with no direct loop in the lane compiler. It
   comes in two shapes. The fiber shape keeps the arrays private, the
   trip count depends on [get_local_id], and the uniform loop holds no
   barrier: a barrier-free kernel whose region cannot run as a lane
   batch, so it plans fibers. The barrier shape keeps the arrays as
   per-work-item slices of [__local] arrays and a uniform trip count,
   and its uniform loop exchanges a value through [__local] memory
   between two barriers: every region runs W-wide, one batch per group.
   The compiled default plan must plan those paths and match tree+fiber
   bit for bit — buffers (private and local scratch included), totals
   and each group's counters and per-work-item event stream on one
   domain; global buffers and totals on two — at group sizes of 1 to 60
   for the barrier shape and 1 to 16 for the fiber shape (the most their
   arrays hold). *)

let random_kernel_gen =
  let open QCheck.Gen in
  let iop = oneofl [ "+"; "-"; "*"; "^"; "&"; "|"; "<<"; ">>" ] in
  let small = int_range (-3) 5 in
  let comp = oneofl [ "x"; "y"; "z"; "w" ] in
  let pred = oneofl [ "l % 2 == 0"; "a[g] > 3"; "g < n / 2"; "acc > l" ] in
  (* the guard of a store in a region without private arrays: its lanes
     form one run, a scattered set, none or all *)
  let guard = oneofl [ "l < 5"; "l % 3 == r"; "a[g] > 3"; "l < 0"; "l >= 0" ] in
  let div = oneofl [ "/"; "%" ] in
  let icmp = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
  (* a constant, an argument or a uniform slot *)
  let uniform = oneofl [ "3"; "-2"; "n"; "n / 2"; "reps + 1" ] in
  map
    (fun ( barriers,
           ( ( (o1, o2, o3, o4),
               (o5, o6, o7, o8),
               (c1, c2, c3, (c4, c5)),
               ((k, ca, cb), p, idx) ),
             ((d1, sh, c6, d2), (u, ic, o9), (fc, gp)) ) ) ->
      (* element [i] of work-item [l]'s array [a] of [len] ints *)
      let at a len i =
        if barriers then Printf.sprintf "%s[l * %d + %s]" a len i
        else Printf.sprintf "%s[%s]" a i
      in
      let decls =
        if barriers then "__local int pa[256]; __local int pb[1024]; __local int pc[256];"
        else "int pa[4]; int pb[16]; int pc[4];"
      in
      let barrier = if barriers then "barrier(CLK_LOCAL_MEM_FENCE);" else "" in
      let pa = at "pa" 4 and pb = at "pb" 16 and pc = at "pc" 4 in
      ( barriers,
        Printf.sprintf
          {|__kernel void k(__global int *out, __global int4 *vout, __global int *dout,
                            __global const int *a, int n, int reps) {
              __local int tile[64];
              %s
              int g = get_global_id(0);
              int l = get_local_id(0);
              for (int t = 0; t < 4; t++) %s = a[g] %s (t + %d);
              %s = a[g] %s %d;
              for (int t = 0; t < 4; t++) %s = %s %s %s;
              int acc = %d;
              for (int t = 0; t < %s%d + 1; t++) acc = acc %s %s;
              if (%s) dout[g] = acc;
              int4 v = (int4)(acc, l, g, n) %s (int4)(%d, %d, 1, 2);
              for (int r = 0; r < reps; r++) {
                tile[l] = v.%s %s r;
                %s
                v.%s = v.%s %s tile[%s];
                if (%s) dout[g] = v.y + r;
                %s
              }
              int q = (acc %s (a[g] | 1)) %s (%d %s (l | 1));
              int s = (%s %s q) ? q %s g : %s;
              float f = (acc %s l) ? (float)g * 0.5f : (float)n;
              vout[g] = v %s (int4)(%s, %s, %s, %s);
              out[g] = %s + acc + get_local_id(2) + s + (int)f;
            }|}
          decls (pa "t") o1 c1 (pb "l") o2 c2 (pc "t") (pa "t") o3 (pb "l") c3
          (if barriers then "" else "l % ") k o4 (pa "t % 4") p o5 c4 c5 ca o6
          barrier cb cb o7
          (if barriers then "(l + 1) % get_local_size(0)" else "l")
          gp barrier d1 sh c6 d2 u ic o9 (pb "l") fc o8 (pc "0") (pc "1")
          (pc "2") (pc "3") (pc (string_of_int idx)) ))
    (pair bool
       (pair
          (quad (quad iop iop iop iop) (quad iop iop iop iop)
             (quad small small small (pair small small))
             (triple (triple (int_range 1 5) comp comp) pred (int_range 0 3)))
          (triple
             (quad div (oneofl [ "<<"; ">>" ]) small div)
             (triple uniform icmp iop) (pair icmp guard))))

(* One 1-D launch of [src] on the arguments [setup] allocates in a fresh
   memory: its totals, its buffers (every space on one domain, the global
   ones on more) and, on one domain, each group's [group_trace]. *)
let run_traced src ?force_path ~setup ~domains ~n ~wg () =
  let fn = lower_one src in
  let mem = Memory.create () in
  let args = setup mem in
  let c = Interp.prepare fn in
  let groups = ref [] in
  let on_group =
    if domains = 1 then Some (fun s -> groups := group_trace s :: !groups)
    else None
  in
  let totals =
    Runtime.launch c
      ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
      ~args ~mem ?on_group ~domains ?force_path ()
  in
  let bufs = if domains = 1 then snapshot_buffers mem else snapshot_globals mem in
  (totals, bufs, List.rev !groups)

(* [src] against tree+fiber: the path its default plan takes, and named
   verdicts: bit-identical buffers, totals and group traces on one
   domain, and global buffers and totals on two. *)
let traced_vs_fibers src ~setup ~n ~wg () : Runtime.path * (string * bool) list =
  let planned = (Runtime.plan (Interp.prepare (lower_one src)) ~cfg:(cfg_1d ~n ~wg) ()).Runtime.path in
  let t_tot, t_bufs, t_trace =
    run_traced src ~force_path:Runtime.Fiber ~setup ~domains:1 ~n ~wg ()
  in
  let c_tot, c_bufs, c_trace = run_traced src ~setup ~domains:1 ~n ~wg () in
  let p_tot, p_bufs, _ =
    with_domain_cap 2 (fun () -> run_traced src ~setup ~domains:2 ~n ~wg ())
  in
  let t_globals = globals_of t_bufs in
  ( planned,
    [ ("identical launch totals", t_tot = c_tot);
      ("bit-identical buffers", compare t_bufs c_bufs = 0);
      ("identical group traces", compare t_trace c_trace = 0);
      ("identical totals on 2 domains", t_tot = p_tot);
      ("bit-identical globals on 2 domains", compare t_globals p_bufs = 0) ] )

(* The same, as checks; the default plan must run lane batches unless
   GROVER_FORCE_PATH pins the run's path. *)
let check_traced_against_fibers ~(label : string) src ~setup ~n ~wg () =
  let planned, verdicts = traced_vs_fibers src ~setup ~n ~wg () in
  if Runtime.env_force_path () = None then
    Alcotest.(check bool) (label ^ ": the default plan runs lane batches") true
      (planned <> Runtime.Fiber);
  List.iter
    (fun (what, ok) -> Alcotest.(check bool) (label ^ ": " ^ what) true ok)
    verdicts

let random_kernel_args ~n ~reps mem =
  let out = Memory.alloc mem Ssa.I32 n in
  let vout = Memory.alloc mem (Ssa.Vec (Ssa.I32, 4)) n in
  let dout = Memory.alloc mem Ssa.I32 n in
  let a = Memory.alloc mem Ssa.I32 n in
  Memory.fill_ints a (fun i -> (i * 5 mod 11) - 3);
  [ Runtime.Abuf out; Runtime.Abuf vout; Runtime.Abuf dout; Runtime.Abuf a;
    Runtime.Aint n; Runtime.Aint reps ]

let prop_random_kernels_agree =
  QCheck.Test.make
    ~name:"random kernels: compiled default plan = tree+fiber (1 and 2 domains)"
    ~count:30
    QCheck.(
      pair (make ~print:snd random_kernel_gen)
        (triple (int_range 1 4) (int_range 1 60) (int_range 0 2)))
    (fun ((barriers, src), (groups, wg, reps)) ->
      let wg = if barriers then wg else 1 + ((wg - 1) mod 16) in
      let n = groups * wg in
      let planned, verdicts =
        traced_vs_fibers src ~setup:(random_kernel_args ~n ~reps) ~n ~wg ()
      in
      (Runtime.env_force_path () <> None
      || planned = if barriers then Runtime.Lanes else Runtime.Fiber)
      && List.for_all snd verdicts)

(* -- Stores in masked arms ---------------------------------------------------------
   A store under a divergent guard runs in its diamond's masked arm: only
   the lanes that take the arm store, record and bounds-check. The
   kernel stores to [__local] or [__global] memory in the then-arm, the
   else-arm or both, under predicates whose then-lanes form one run from
   lane 0, one run inside the group, a scattered set, no lane and every
   lane. On groups of 20, 32 and 64 (one whole-group batch each, where
   one run records as one record), it must match tree+fiber bit for
   bit. *)

let masked_store_source ~(local : bool) ~(arms : [ `Then | `Else | `Both ])
    ~(pred : string) =
  let store e = if local then Printf.sprintf "tile[l] = %s;" e else Printf.sprintf "gdst[g] = %s;" e in
  let in_then = arms <> `Else and in_else = arms <> `Then in
  Printf.sprintf
    {|__kernel void k(__global int *out, __global int *gdst, __global const int *a) {
        __local int tile[64];
        int l = get_local_id(0);
        int g = get_global_id(0);
        tile[l] = -1;
        barrier(CLK_LOCAL_MEM_FENCE);
        int v = a[g];
        int w = v;
        if (%s) { w = v + 3; %s } else { %s }
        barrier(CLK_LOCAL_MEM_FENCE);
        out[g] = tile[l] + w;
      }|}
    pred
    (if in_then then store "v * 2" else "")
    (if in_else then store "v - 5" else "")

let masked_store_preds =
  [ ("run from lane 0", "l < 7");
    ("inner run", "(l >= 3) & (l < 11)");
    ("scattered", "l % 3 == 1");
    ("no lane", "l < 0");
    ("every lane", "l >= 0") ]

let masked_store_setup ~n mem =
  let out = Memory.alloc mem Ssa.I32 n and gdst = Memory.alloc mem Ssa.I32 n in
  let a = Memory.alloc mem Ssa.I32 n in
  Memory.fill_ints a (fun i -> (i * 7 mod 19) - 4);
  [ Runtime.Abuf out; Runtime.Abuf gdst; Runtime.Abuf a ]

let test_masked_stores () =
  List.iter
    (fun local ->
      List.iter
        (fun (arms, an) ->
          List.iter
            (fun (pn, pred) ->
              let src = masked_store_source ~local ~arms ~pred in
              (match Regions.form (lower_one src) with
              | Regions.Formed i -> (
                  match i.Regions.lane_entries.(1) with
                  | Regions.Lane_masked 1 -> ()
                  | lv ->
                      Alcotest.failf "%s store, %s: region 1 should be masked, got: %s"
                        an pn (Regions.verdict_string lv))
              | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r);
              List.iter
                (fun wg ->
                  let label =
                    Printf.sprintf "%s store in %s, %s, group of %d"
                      (if local then "__local" else "__global")
                      an pn wg
                  in
                  let n = 3 * wg in
                  check_traced_against_fibers ~label src ~setup:(masked_store_setup ~n) ~n
                    ~wg ())
                [ 20; 32; 64 ])
            masked_store_preds)
        [ (`Then, "the then-arm"); (`Else, "the else-arm"); (`Both, "both arms") ])
    [ true; false ]

(* An inactive lane computes its index flat, out of bounds or not, but
   never stores, records or traps: AMD-SS's staging shape (lanes 4 and
   up index past a 4-element [__local] array) in groups of 20, 30 and
   60, and saxpy's bounds guard (work-items 37..47 index past a
   37-element buffer) in groups of 1, 8, 16 and 48. *)
let test_masked_store_inactive_out_of_bounds () =
  let staging =
    {|__kernel void k(__global int *out, __global const int *a) {
        __local int lp[4];
        int l = get_local_id(0);
        if (l < 4) lp[l] = a[l];
        barrier(CLK_LOCAL_MEM_FENCE);
        out[get_global_id(0)] = lp[l % 4] + l;
      }|}
  in
  let staging_setup mem =
    let out = Memory.alloc mem Ssa.I32 60 and a = Memory.alloc mem Ssa.I32 4 in
    Memory.fill_ints a (fun i -> (i * 5) - 7);
    [ Runtime.Abuf out; Runtime.Abuf a ]
  in
  let saxpy_setup mem =
    let y = Memory.alloc mem Ssa.F32 37 and x = Memory.alloc mem Ssa.F32 48 in
    Memory.fill_floats y (fun i -> float_of_int (i mod 11) /. 4.0);
    Memory.fill_floats x (fun i -> float_of_int (i mod 7) -. 2.5);
    [ Runtime.Abuf y; Runtime.Abuf x; Runtime.Afloat 1.5; Runtime.Aint 37 ]
  in
  List.iter
    (fun wg ->
      check_traced_against_fibers ~label:(Printf.sprintf "staging, group of %d" wg) staging
        ~setup:staging_setup ~n:60 ~wg ())
    [ 20; 30; 60 ];
  List.iter
    (fun wg ->
      check_traced_against_fibers ~label:(Printf.sprintf "saxpy, group of %d" wg) saxpy_source
        ~setup:saxpy_setup ~n:48 ~wg ())
    [ 1; 8; 16; 48 ]

(* The run form of an index column: over any run of lanes of any group
   shape, a column affine in the local id is accepted, and an accepted
   column, perturbed or not, is reproduced at every lane of the run by
   the form [run_form] derived. *)
let prop_run_form_sound =
  QCheck.Test.make ~name:"run_form: affine runs accepted, accepted runs reproduced" ~count:500
    QCheck.(
      pair
        (triple (int_range 1 6) (int_range 1 4) (int_range 1 3))
        (quad (pair small_nat small_nat) (int_range (-9) 9)
           (triple (int_range (-9) 9) (int_range (-40) 40) (int_range (-90) 90))
           (option (pair small_nat (int_range 1 3)))))
    (fun ((lsx, lsy, lsz), ((fa, ca), i0, (sx, sy, sz), perturb)) ->
      let nl = lsx * lsy * lsz in
      let f = fa mod nl in
      let last = f + (ca mod (nl - f)) in
      let lid l = (l mod lsx, l / lsx mod lsy, l / (lsx * lsy)) in
      let col =
        Array.init nl (fun l ->
            let x, y, z = lid l in
            i0 + (sx * x) + (sy * y) + (sz * z))
      in
      Option.iter (fun (p, d) -> let p = f + (p mod (last - f + 1)) in col.(p) <- col.(p) + d) perturb;
      let j0, jx, jy, jz = Interp.run_form col 0 ~lsx ~lsy ~f ~last in
      let accepted = Interp.affine_column col 0 ~lsx ~lsy ~f ~last j0 jx jy jz in
      let reproduced = ref true in
      for l = f to last do
        let x, y, z = lid l in
        if j0 + (jx * x) + (jy * y) + (jz * z) <> col.(l) then reproduced := false
      done;
      (perturb <> None || accepted) && ((not accepted) || !reproduced))

(* A region that cannot run W-wide plans fibers: a private array, and
   examples/kernels/divergent_loop.cl's loop whose trip count comes from
   get_local_id(0), each in a kernel without barriers and in one with a
   barrier after it, leave the kernel without lane code, so it plans the
   fiber scheduler in groups of 10, and matches tree+fiber. *)
let test_scalar_region_plans_fibers () =
  let kernel ~barrier body =
    Printf.sprintf
      {|__kernel void k(__global float *out, __global const float *in) {
          __local float tile[16];
          int l = get_local_id(0);
          int g = get_global_id(0);
          %s
          tile[l] = v;
          %s
          out[g] = v + tile[(l + 1) %% get_local_size(0)];
        }|}
      body
      (if barrier then "barrier(CLK_LOCAL_MEM_FENCE);" else "")
  in
  let private_array =
    "float acc[4]; for (int k = 0; k < 4; k++) acc[k] = in[g] * (float)(k + 1); float v = acc[l % 4];"
  and divergent_loop = "float v = 0.0f; for (int t = 0; t != l; t++) { v = v + in[t]; }" in
  let n = 30 and wg = 10 in
  let setup mem =
    let out = Memory.alloc mem Ssa.F32 n and inp = Memory.alloc mem Ssa.F32 n in
    Memory.fill_floats inp (fun i -> float_of_int ((i * 7 mod 11) - 4) /. 4.0);
    [ Runtime.Abuf out; Runtime.Abuf inp ]
  in
  List.iter
    (fun (shape, body, reason) ->
      List.iter
        (fun barrier ->
          let label = Printf.sprintf "%s, %s" shape (if barrier then "with a barrier" else "barrier-free") in
          let src = kernel ~barrier body in
          let c = Interp.prepare (lower_one src) in
          Alcotest.(check bool) (label ^ ": barriers") barrier (has_barrier c);
          (match c.Interp.regions with
          | Regions.Formed i -> (
              match i.Regions.lane_entries.(0) with
              | Regions.Scalar r ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: region 0 bails (%s)" label r)
                    true
                    (String.length r >= String.length reason
                    && String.sub r 0 (String.length reason) = reason)
              | lv -> Alcotest.failf "%s: region 0 must bail, got: %s" label (Regions.verdict_string lv))
          | Regions.Fallback r -> Alcotest.failf "%s: unexpected fallback: %s" label r);
          Alcotest.(check bool) (label ^ ": no lane code") true (Option.is_none c.Interp.code);
          check_default_plan ~label c ~cfg:(cfg_1d ~n ~wg) Runtime.Fiber;
          Alcotest.check path_t (label ^ ": a wg-vec request's plan") Runtime.Fiber
            (Runtime.plan c ~cfg:(cfg_1d ~n ~wg) ~force_path:Runtime.Lanes ()).Runtime.path;
          List.iter
            (fun (what, ok) -> Alcotest.(check bool) (label ^ ": " ^ what) true ok)
            (snd (traced_vs_fibers src ~setup ~n ~wg ())))
        [ false; true ])
    [ ("private array", private_array, "private alloca");
      ("divergent loop", divergent_loop, "divergent branch arms do not reconverge") ]

(* -- One batch per work-group --------------------------------------------------
   A kernel runs each work-group as one lane batch, so the values live
   across a barrier stay in the lane slots. This kernel keeps an int, a
   float and a float4 (and uniform values) live across two barriers in a
   uniform loop, with a [__local] array sized for the group. It must
   match tree+fiber when one batch of W = 256 holds the group (1, 4, 64
   and 256 work-items). A group wider than W plans the fiber scheduler
   instead: 257 and 512 work-items. *)

let group_spill_source wg =
  Printf.sprintf
    {|__kernel void k(__global float4 *vout, __global float *fout,
                      __global int *iout, __global const float4 *a,
                      __global const float *b, int reps) {
        __local float tmp[%d];
        int l = get_local_id(0);
        int g = get_global_id(0);
        int n = get_local_size(0);
        int li = l * 3 + 1;
        float fv = b[g] * 0.5f;
        float4 v = a[g];
        float fu = (float)reps * 0.25f;
        for (int r = 0; r < reps; r++) {
          tmp[l] = fv + (float)li;
          barrier(CLK_LOCAL_MEM_FENCE);
          fv = fv * 0.5f + tmp[(l + 1) %% n];
          li = (li * 5 + l + r) %% 1009;
          barrier(CLK_LOCAL_MEM_FENCE);
          v = v * 0.5f + (float4)(fv, (float)li, fu, (float)r);
        }
        vout[g] = v;
        fout[g] = fv + fu;
        iout[g] = li + n;
      }|}
    wg

let group_spill_setup ~n mem =
  let v4 = Ssa.Vec (Ssa.F32, 4) in
  let vout = Memory.alloc mem v4 n and fout = Memory.alloc mem Ssa.F32 n in
  let iout = Memory.alloc mem Ssa.I32 n in
  let a = Memory.alloc mem v4 n and b = Memory.alloc mem Ssa.F32 n in
  Memory.fill_floats a (fun k -> float_of_int ((k * 7 mod 23) - 11) /. 8.0);
  Memory.fill_floats b (fun k -> float_of_int ((k * 5 mod 17) - 8) /. 4.0);
  [ Runtime.Abuf vout; Runtime.Abuf fout; Runtime.Abuf iout; Runtime.Abuf a;
    Runtime.Abuf b; Runtime.Aint 3 ]

let test_group_batches_spill () =
  List.iter
    (fun wg ->
      let src = group_spill_source wg and n = 4 * wg in
      let label = Printf.sprintf "group of %d" wg in
      let c = Interp.prepare (lower_one src) in
      Alcotest.(check bool) (label ^ ": three W-wide regions") true
        (Option.is_some c.Interp.code);
      check_traced_against_fibers ~label src ~setup:(group_spill_setup ~n) ~n ~wg ())
    [ 1; 4; 64; 256 ]

let test_group_wider_than_width_plans_fibers () =
  List.iter
    (fun wg ->
      let src = group_spill_source wg and n = 4 * wg in
      let label = Printf.sprintf "group of %d" wg in
      let planned, verdicts = traced_vs_fibers src ~setup:(group_spill_setup ~n) ~n ~wg () in
      Alcotest.check path_t (label ^ ": planned path") Runtime.Fiber planned;
      List.iter
        (fun (what, ok) -> Alcotest.(check bool) (label ^ ": " ^ what) true ok)
        verdicts)
    [ 257; 512 ]

(* Lane code runs a group of at most [Interp.max_lane_width] work-items:
   a kernel with barriers and one without plan lane batches at 256
   work-items and fibers at 257 and 512, in one dimension or two,
   whether the request is the default, [~force_path:Lanes] or
   GROVER_FORCE_PATH=wg-vec, which never raises. A barrier-free kernel
   that reads only get_global_id writes the same buffers either way. *)
let test_plan_group_limit () =
  let barrier_free =
    {|__kernel void k(__global float *out, __global const float *a) {
        int g = get_global_id(0);
        out[g] = a[g] * 3.0f + (float)g;
      }|}
  in
  let groups =
    [ ((256, 1, 1), Runtime.Lanes); ((16, 16, 1), Runtime.Lanes); ((257, 1, 1), Runtime.Fiber);
      ((512, 1, 1), Runtime.Fiber); ((16, 32, 1), Runtime.Fiber) ]
  in
  List.iter
    (fun (kn, src) ->
      let c = Interp.prepare (lower_one src) in
      Alcotest.(check bool) (kn ^ ": lane code") true (Option.is_some c.Interp.code);
      List.iter
        (fun (((lx, ly, _) as local), want) ->
          let cfg = { Runtime.global = (2 * lx, ly, 1); local; queues = 1 } in
          let label what = Printf.sprintf "%s, %dx%d group: %s" kn lx ly what in
          if Runtime.env_force_path () = None then
            Alcotest.check path_t (label "default plan") want (Runtime.plan c ~cfg ()).Runtime.path;
          Alcotest.check path_t (label "~force_path:Lanes") want
            (Runtime.plan c ~cfg ~force_path:Runtime.Lanes ()).Runtime.path;
          with_force_path "wg-vec" (fun () ->
              Alcotest.check path_t (label "GROVER_FORCE_PATH=wg-vec") want
                (Runtime.plan c ~cfg ()).Runtime.path))
        groups)
    [ ("with barriers", group_spill_source 512); ("barrier-free", barrier_free) ];
  let c = Interp.prepare (lower_one barrier_free) in
  let run wg =
    let n = 1024 in
    let mem = Memory.create () in
    let out = Memory.alloc mem Ssa.F32 n and a = Memory.alloc mem Ssa.F32 n in
    Memory.fill_floats a (fun i -> float_of_int ((i * 7 mod 23) - 5) /. 4.0);
    let cfg = cfg_1d ~n ~wg in
    let p = (Runtime.plan c ~cfg ~force_path:Runtime.Lanes ()).Runtime.path in
    ignore (Runtime.launch c ~cfg ~args:[ Runtime.Abuf out; Runtime.Abuf a ] ~mem ~force_path:Runtime.Lanes ());
    (p, Memory.to_float_array out)
  in
  let p256, o256 = run 256 and p512, o512 = run 512 in
  Alcotest.check path_t "groups of 256 run lane batches" Runtime.Lanes p256;
  Alcotest.check path_t "groups of 512 run fibers" Runtime.Fiber p512;
  Alcotest.(check bool) "bit-identical buffers at 256 and 512" true (compare o256 o512 = 0)

(* -- Phi moves in place --------------------------------------------------------
   An edge whose phi moves read no slot they write moves in place; an
   edge where one move reads a phi another move writes must stage. Here
   the loop's back edge rotates [t = a; a = b; b = t + 1] and swaps two
   floats, uniform or varying; moved in place, the swap would read the
   value it just wrote. In groups of 1, 8 and 13 the result must match
   tree+fiber, and the back edge must really stage. *)

let phi_rotation_source ~varying =
  let a, b, p, q =
    if varying then ("g", "l * 2 + 1", "x[g]", "x[g] * 0.5f + 1.0f")
    else ("reps", "reps * 2 + 1", "0.5f", "(float)reps + 0.25f")
  in
  Printf.sprintf
    {|__kernel void k(__global int *iout, __global float *fout,
                      __global const float *x, int reps) {
        int g = get_global_id(0);
        int l = get_local_id(0);
        int a = %s;
        int b = %s;
        float p = %s;
        float q = %s;
        float s = 0.0f;
        for (int k = 0; k < reps; k++) {
          s = s + p * (float)(a - b);
          int t = a; a = b; b = t + 1;
          float u = p; p = q; q = u;
        }
        iout[g] = a * 3 + b;
        fout[g] = s + p - q * 2.0f;
      }|}
    a b p q

let test_phi_rotation ~varying () =
  let src = phi_rotation_source ~varying in
  List.iter
    (fun wg ->
      let n = 3 * wg in
      let label =
        Printf.sprintf "%s, group of %d" (if varying then "varying" else "uniform") wg
      in
      (match (Interp.prepare (lower_one src)).Interp.code with
      | Some ln ->
          let staged =
            if varying then ln.Interp.lscr_vi > 0 && ln.Interp.lscr_vf > 0
            else ln.Interp.lscr_ui > 0 && ln.Interp.lscr_uf > 0
          in
          Alcotest.(check bool) (label ^ ": back edge stages") true staged
      | None -> Alcotest.failf "%s: no lane code" label);
      let setup mem =
        let iout = Memory.alloc mem Ssa.I32 n and fout = Memory.alloc mem Ssa.F32 n in
        let x = Memory.alloc mem Ssa.F32 n in
        Memory.fill_floats x (fun k -> float_of_int ((k * 5 mod 17) - 8) /. 4.0);
        [ Runtime.Abuf iout; Runtime.Abuf fout; Runtime.Abuf x; Runtime.Aint 5 ]
      in
      check_traced_against_fibers ~label src ~setup ~n ~wg ())
    [ 1; 8; 13 ]

(* -- Lane plans of the suite ----------------------------------------------------
   The plan of every suite version, and of every kernel promote-lm builds
   back from a Grover-transformed one, is pinned here at its case
   geometry: lane batches (the default plan when GROVER_FORCE_PATH is
   unset), one batch as wide as the work-group. A region that could not
   run as a lane batch would send the kernel to the fiber scheduler. The
   region count of every version is pinned too. Region 0 of AMD-SS, PAB-ST and ROD-SC with_lm
   stages shared data behind a lane guard, a store in a masked arm. *)

let expected_regions =
  [ ("AMD-SS", 2, 1); ("AMD-MT", 2, 1); ("NVD-MT", 2, 1); ("AMD-RG", 2, 1);
    ("AMD-MM", 3, 1); ("NVD-MM-A", 3, 3); ("NVD-MM-B", 3, 3);
    ("NVD-MM-AB", 3, 1); ("NVD-NBody", 3, 1); ("PAB-ST", 2, 1);
    ("ROD-SC", 2, 1); ("TNG-GEMM4", 3, 1) ]

(* How many suite cases promote-lm turns back into a tiled kernel. *)
let promoted_cases = 6

let test_suite_lane_flags () =
  Alcotest.(check int) "every suite case pinned"
    (List.length Grover_suite.Suite.all)
    (List.length expected_regions);
  let promoted = ref 0 in
  List.iter
    (fun (case : Kit.case) ->
      let _, with_lm, without_lm =
        List.find (fun (id, _, _) -> id = case.Kit.id) expected_regions
      in
      let cfg = suite_cfg case in
      let one_batch label fn =
        let c = Interp.prepare fn in
        Alcotest.check path_t
          (Printf.sprintf "%s %s plan" case.Kit.id label)
          Runtime.Lanes
          (Runtime.plan c ~cfg ~force_path:Runtime.Lanes ()).Runtime.path;
        c
      in
      List.iter
        (fun (v, vn, want) ->
          let fn, _ = H.compile_version case v in
          let c = one_batch vn fn in
          Alcotest.(check int)
            (Printf.sprintf "%s %s regions" case.Kit.id vn)
            want
            (match c.Interp.regions with
            | Regions.Formed i -> i.Regions.n_regions
            | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r))
        [ (H.With_lm, "with-lm", with_lm); (H.Without_lm, "grover", without_lm) ];
      let pm = H.promote_run ~scale:8 case in
      if pm.H.pm_outcome.Grover_promote.Promote.promoted <> [] then begin
        incr promoted;
        ignore (one_batch "promoted" pm.H.pm_fn)
      end)
    Grover_suite.Suite.all;
  Alcotest.(check int) "promoted kernels" promoted_cases !promoted

(* -- Record census --------------------------------------------------------------
   A lane batch that covers its whole group stores an access whose index
   is affine in the local id over the lanes that make it as one record:
   a whole-group record, or, in a masked arm whose active lanes are one
   run of work-items, a run record. Every other access is a one-lane
   record. The census of each suite version at scale 8 on the default
   plan (also under [GROVER_FORCE_PATH]) is pinned, so an access that
   stops being recorded once per group or run shows, and so is how many
   of the groups' SIMD batches memsim replays in lockstep on SNB, Nehalem
   and MIC. Traces do not depend on input values, so the counts are
   stable. Per version: (whole-group records, run records, one-lane
   records, groups) and, per platform, (lockstep batches, batches). *)

module Sim = Grover_memsim.Simulate

let record_census (case : Kit.case) (v : H.version) :
    (int * int * int * int) * (int * int) list =
  let fn, _ = H.compile_version case v in
  let c = Interp.prepare fn in
  let w = case.Kit.mk ~scale:8 in
  let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
  let sims =
    List.map
      (Sim.create ~vectorized:(H.uses_vector_types fn))
      Grover_memsim.Platform.cache_only
  in
  let lockstep = Array.make (List.length sims) 0 and batches = Array.make (List.length sims) 0 in
  let whole = ref 0 and run = ref 0 and one = ref 0 and groups = ref 0 in
  let on_group (s : Trace.wg_stats) =
    for r = 0 to s.Trace.n_recs - 1 do
      let k = r * Trace.rec_words in
      let lanes = s.Trace.recs.(k + Trace.f_lanes) in
      if lanes = 1 then incr one
      else if s.Trace.recs.(k + Trace.f_info) lsr Trace.wi_shift = 0 && lanes = s.Trace.wg_size
      then incr whole
      else incr run
    done;
    incr groups;
    List.iteri
      (fun p sim ->
        let v = Sim.lockstep_batches sim s in
        batches.(p) <- batches.(p) + Array.length v;
        Array.iter (fun l -> if l then lockstep.(p) <- lockstep.(p) + 1) v)
      sims
  in
  ignore
    (Runtime.launch c ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~on_group
       ~force_path:(Runtime.default_path c) ());
  ( (!whole, !run, !one, !groups),
    List.init (List.length sims) (fun p -> (lockstep.(p), batches.(p))) )

let expected_census =
  [ ( "AMD-SS",
      ((2112, 128, 0, 64), [ (512, 512); (1024, 1024); (256, 256) ]),
      ((2112, 0, 0, 64), [ (512, 512); (1024, 1024); (256, 256) ]) );
    ( "AMD-MT",
      ((64, 0, 0, 4), [ (256, 256); (256, 256); (256, 256) ]),
      ((32, 0, 0, 4), [ (256, 256); (256, 256); (256, 256) ]) );
    ( "NVD-MT",
      ((16, 0, 0, 4), [ (128, 128); (256, 256); (64, 64) ]),
      ((8, 0, 0, 4), [ (128, 128); (256, 256); (64, 64) ]) );
    ( "AMD-RG",
      ((4, 0, 0, 1), [ (256, 256); (256, 256); (256, 256) ]),
      ((2, 0, 0, 1), [ (256, 256); (256, 256); (256, 256) ]) );
    ( "AMD-MM",
      ((19, 0, 0, 1), [ (64, 64); (64, 64); (64, 64) ]),
      ((17, 0, 0, 1), [ (64, 64); (64, 64); (64, 64) ]) );
    ( "NVD-MM-A",
      ((37, 0, 0, 1), [ (32, 32); (64, 64); (16, 16) ]),
      ((35, 0, 0, 1), [ (32, 32); (64, 64); (16, 16) ]) );
    ( "NVD-MM-B",
      ((37, 0, 0, 1), [ (32, 32); (64, 64); (16, 16) ]),
      ((35, 0, 0, 1), [ (32, 32); (64, 64); (16, 16) ]) );
    ( "NVD-MM-AB",
      ((37, 0, 0, 1), [ (32, 32); (64, 64); (16, 16) ]),
      ((33, 0, 0, 1), [ (32, 32); (64, 64); (16, 16) ]) );
    ( "NVD-NBody",
      ((268, 0, 0, 2), [ (128, 128); (128, 128); (128, 128) ]),
      ((260, 0, 0, 2), [ (128, 128); (128, 128); (128, 128) ]) );
    ( "PAB-ST",
      ((16, 0, 128, 2), [ (32, 64); (96, 128); (0, 32) ]),
      ((12, 0, 0, 2), [ (64, 64); (128, 128); (32, 32) ]) );
    ( "ROD-SC",
      ((264, 16, 0, 8), [ (64, 64); (128, 128); (32, 32) ]),
      ((264, 0, 0, 8), [ (64, 64); (128, 128); (32, 32) ]) );
    ( "TNG-GEMM4",
      ((35, 0, 0, 1), [ (256, 256); (256, 256); (256, 256) ]),
      ((33, 0, 0, 1), [ (256, 256); (256, 256); (256, 256) ]) ) ]

(* AMD-SS and ROD-SC with_lm stage 16 values from the first 16
   work-items, a run that SNB's, Nehalem's and MIC's SIMD batches never
   straddle: every batch of theirs must replay in lockstep. *)
let all_lockstep_with_lm = [ "AMD-SS"; "ROD-SC" ]

let test_record_census () =
  Alcotest.(check int) "every suite case pinned"
    (List.length Grover_suite.Suite.all)
    (List.length expected_census);
  let census_t = Alcotest.(pair (pair (pair int int) (pair int int)) (list (pair int int))) in
  List.iter
    (fun (case : Kit.case) ->
      let _, with_lm, without_lm =
        List.find (fun (id, _, _) -> id = case.Kit.id) expected_census
      in
      List.iter
        (fun (v, vn, ((a, b, c, d), plats)) ->
          let ((_, run, one, _), got_plats) as got = record_census case v in
          let label = Printf.sprintf "%s %s" case.Kit.id vn in
          Alcotest.check census_t
            (label
           ^ ": whole-group, run and one-lane records, groups; lockstep batches per platform")
            (((a, b), (c, d)), plats)
            (let (a, b, c, d), p = got in
             (((a, b), (c, d)), p));
          let all_lockstep = List.for_all (fun (l, n) -> l = n) got_plats in
          if run = 0 && one = 0 then
            Alcotest.(check bool)
              (label ^ ": whole-group records only, so every batch is lockstep")
              true all_lockstep;
          if v = H.With_lm && List.mem case.Kit.id all_lockstep_with_lm then
            Alcotest.(check bool)
              (label ^ ": every batch replays in lockstep on SNB, Nehalem and MIC")
              true all_lockstep)
        [ (H.With_lm, "with-lm", with_lm); (H.Without_lm, "grover", without_lm) ])
    Grover_suite.Suite.all

(* -- Affine batch moves ----------------------------------------------------------
   A whole-group lane access whose index is affine in the local id over
   its run of lanes moves its elements as one batch when no sanitizer is
   installed and every row segment is in bounds ([Interp.batch_move],
   counted in [Trace.batch_moves]). Each kernel loads [src] and stores
   [dst] at [base + gs·group + sx·lx + sy·ly + sz·lz]: char, int, float,
   float4 and int4 elements; a stride in x of 1, 0, -1, 3 or the row
   pitch; sy = 0, where every row reaches the same elements, so the last
   lane's store must win; 1-D, 2-D and 3-D groups; the same access in a
   masked arm whose active lanes are one run; and a store of a
   batch-uniform value, read from its one base column. The default plan moves
   every multi-lane-recorded access as one batch, a sanitized launch
   moves the same batches lane by lane, and tree+fiber work-item by
   work-item: buffers, totals and group traces must all be equal. *)

let batch_move_types =
  [ ("char", Ssa.I8, Printf.sprintf "(char)%s");
    ("int", Ssa.I32, Printf.sprintf "%s");
    ("float", Ssa.F32, Printf.sprintf "(float)%s");
    ("float4", Ssa.Vec (Ssa.F32, 4), Printf.sprintf "(float4)((float)%s)");
    ("int4", Ssa.Vec (Ssa.I32, 4), Printf.sprintf "(int4)(%s)") ]

let batch_move_shapes =
  [ ("1-D, sx = 1", (32, 1, 1), (1, 0, 0));
    ("1-D, sx = 0", (32, 1, 1), (0, 0, 0));
    ("1-D, sx = -1", (32, 1, 1), (-1, 0, 0));
    ("1-D, sx = 3", (32, 1, 1), (3, 0, 0));
    ("2-D, row-major", (8, 4, 1), (1, 8, 0));
    ("2-D, sx = row pitch", (8, 4, 1), (4, 1, 0));
    ("2-D, sx = 0", (8, 4, 1), (0, 1, 0));
    ("2-D, sy = 0", (8, 4, 1), (1, 0, 0));
    ("2-D, sx = -1, sy = 0", (8, 4, 1), (-1, 0, 0));
    ("3-D", (4, 2, 3), (1, 4, 8));
    ("3-D, sy = 0", (4, 2, 3), (3, 0, 12));
    ("3-D, every stride negative", (4, 2, 3), (-1, -4, -8)) ]

(* [uniform]: the stored value is the same in every lane, a batch-uniform
   slot, instead of one read from [src]. *)
let batch_move_source ~ty ~conv ~masked ~uniform (sx, sy, sz) =
  Printf.sprintf
    {|__kernel void k(__global %s *dst, __global const %s *src, int base, int gs) {
        int x = get_local_id(0);
        int y = get_local_id(1);
        int z = get_local_id(2);
        int l = x + get_local_size(0) * (y + get_local_size(1) * z);
        int u = base * 3 + gs;
        int i = base + gs * get_group_id(0) + %d * x + %d * y + %d * z;
        %s dst[i] = %s;
      }|}
    ty ty sx sy sz
    (if masked then "if ((l >= 3) & (l < 11))" else "")
    (if uniform then conv "u" else "src[i] + " ^ conv "l")

(* Two groups in x. Each group's indices span [0, gs) from its base. *)
let batch_move_launch src ~elem ~local:(lx, ly, lz) ~strides:(sx, sy, sz) ?force_path
    ?sanitizer () =
  let corners =
    List.concat_map
      (fun x -> List.concat_map (fun y -> List.map (fun z -> (sx * x) + (sy * y) + (sz * z)) [ 0; lz - 1 ]) [ 0; ly - 1 ])
      [ 0; lx - 1 ]
  in
  let lo = List.fold_left min 0 corners and hi = List.fold_left max 0 corners in
  let gs = hi - lo + 1 in
  let mem = Memory.create () in
  let dst = Memory.alloc mem elem (2 * gs) and src_b = Memory.alloc mem elem (2 * gs) in
  (match src_b.Memory.st with
  | Memory.F _ -> Memory.fill_floats src_b (fun i -> float_of_int ((i * 7 mod 23) - 5) /. 4.0)
  | Memory.I _ -> Memory.fill_ints src_b (fun i -> (i * 7 mod 23) - 5));
  let c = Interp.prepare (lower_one src) in
  let groups = ref [] and moves = ref 0 and multi = ref 0 in
  let on_group (s : Trace.wg_stats) =
    moves := !moves + s.Trace.batch_moves;
    for r = 0 to s.Trace.n_recs - 1 do
      if s.Trace.recs.((r * Trace.rec_words) + Trace.f_lanes) > 1 then incr multi
    done;
    groups := group_trace s :: !groups
  in
  let totals =
    Runtime.launch c
      ~cfg:{ Runtime.global = (2 * lx, ly, lz); local = (lx, ly, lz); queues = 1 }
      ~args:[ Runtime.Abuf dst; Runtime.Abuf src_b; Runtime.Aint (-lo); Runtime.Aint gs ]
      ~mem ~on_group ?force_path ?sanitizer ()
  in
  ((totals, snapshot_buffers mem, List.rev !groups), !moves, !multi)

let test_batch_moves_agree () =
  List.iter
    (fun (tn, elem, conv) ->
      List.iter
        (fun (sn, local, strides) ->
          List.iter
            (fun (masked, uniform) ->
              let label =
                Printf.sprintf "%s, %s%s%s" tn sn
                  (if masked then ", masked run" else "")
                  (if uniform then ", uniform value" else "")
              in
              let src = batch_move_source ~ty:tn ~conv ~masked ~uniform strides in
              let run = batch_move_launch src ~elem ~local ~strides in
              let batch, moves, multi = run () in
              let per_lane, lane_moves, _ = run ~sanitizer:(Sanitize.create ()) () in
              let fiber, fiber_moves, _ = run ~force_path:Runtime.Fiber () in
              Alcotest.(check int) (label ^ ": every multi-lane record moved as one batch") multi moves;
              if Runtime.env_force_path () = None then
                Alcotest.(check int) (label ^ ": every access of both groups moved as one batch")
                  (if uniform then 2 else 4) moves;
              Alcotest.(check int) (label ^ ": none moves as a batch when sanitized") 0 lane_moves;
              Alcotest.(check int) (label ^ ": none moves as a batch on fibers") 0 fiber_moves;
              Alcotest.(check bool) (label ^ ": batch = per-lane") true (compare batch per_lane = 0);
              Alcotest.(check bool) (label ^ ": batch = tree+fiber") true (compare batch fiber = 0))
            [ (false, false); (true, false); (false, true); (true, true) ])
        batch_move_shapes)
    batch_move_types

(* The last lane of a 256-lane batch indexes one past the end: the batch
   move declines, and the lanes store, or load, one by one up to the
   trap, so the launch raises [Memory.check]'s message for that lane and
   the stores of lanes 0 to 254 stay made. Row-major 1-D and 2-D groups,
   float and int4 elements. *)
let test_batch_move_last_lane_out_of_bounds () =
  let n = 300 and off = 45 in
  List.iter
    (fun (tn, elem, local) ->
      let lx, ly, _ = local in
      let idx = if ly = 1 then "x" else Printf.sprintf "y * %d + x" lx in
      List.iter
        (fun (what, store) ->
          let label = Printf.sprintf "%s %s, %dx%d group" tn what lx ly in
          let src =
            Printf.sprintf
              {|__kernel void k(__global %s *dst, __global const %s *src, int off) {
                  int x = get_local_id(0);
                  int y = get_local_id(1);
                  int l = %s;
                  %s
                }|}
              tn tn idx
              (if store then "dst[l + off] = src[l] + src[l];" else "dst[l] = src[l + off];")
          in
          let mem = Memory.create () in
          let dst = Memory.alloc mem elem n and src_b = Memory.alloc mem elem n in
          (match src_b.Memory.st with
          | Memory.F _ -> Memory.fill_floats src_b (fun i -> float_of_int (i + 1))
          | Memory.I _ -> Memory.fill_ints src_b (fun i -> i + 1));
          let c = Interp.prepare (lower_one src) in
          let cfg = { Runtime.global = local; local; queues = 1 } in
          Alcotest.check path_t (label ^ ": one 256-lane batch") Runtime.Lanes
            (Runtime.plan c ~cfg ~force_path:Runtime.Lanes ~domains:1 ()).Runtime.path;
          let want =
            Printf.sprintf "buffer %d (global): element index %d out of bounds [0,%d)"
              (if store then 0 else 1) (255 + off) n
          in
          (match
             Runtime.launch c ~cfg
               ~args:[ Runtime.Abuf dst; Runtime.Abuf src_b; Runtime.Aint off ]
               ~mem ~force_path:Runtime.Lanes ()
           with
          | exception Invalid_argument m -> Alcotest.(check string) (label ^ ": message") want m
          | _ -> Alcotest.failf "%s: the access did not trap" label);
          let lanes = Memory.lanes_of elem in
          let expected =
            Array.init (n * lanes) (fun k ->
                let e = k / lanes in
                if store && e >= off then 2 * (((e - off) * lanes) + (k mod lanes) + 1) else 0)
          in
          let got =
            match dst.Memory.st with
            | Memory.F a -> Array.map int_of_float a
            | Memory.I a -> Array.copy a
          in
          Alcotest.(check (array int)) (label ^ ": the stores before the trap, and no other") expected got)
        [ ("store", true); ("load", false) ])
    [ ("float", Ssa.F32, (256, 1, 1));
      ("float", Ssa.F32, (16, 16, 1));
      ("int4", Ssa.Vec (Ssa.I32, 4), (256, 1, 1));
      ("int4", Ssa.Vec (Ssa.I32, 4), (16, 16, 1)) ]

(* Per suite version at scale 8: on the default plan, the accesses that
   move as one batch are exactly those stored as whole-group or run
   records (pinned in [expected_census]); under the sanitizer and on
   forced fibers, none is. *)
let test_batch_move_census () =
  List.iter
    (fun (case : Kit.case) ->
      let _, with_lm, without_lm =
        List.find (fun (id, _, _) -> id = case.Kit.id) expected_census
      in
      List.iter
        (fun (v, vn, ((whole, run, _, _), _)) ->
          let fn, _ = H.compile_version case v in
          let c = Interp.prepare fn in
          let moves ?sanitizer force_path =
            let w = case.Kit.mk ~scale:8 in
            let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
            let n = ref 0 in
            ignore
              (Runtime.launch c ~cfg ~args:w.Kit.args ~mem:w.Kit.mem
                 ~on_group:(fun s -> n := !n + s.Trace.batch_moves)
                 ~force_path ?sanitizer ());
            !n
          in
          let label = Printf.sprintf "%s %s" case.Kit.id vn in
          Alcotest.(check int) (label ^ ": batch moves on the default plan") (whole + run)
            (moves (Runtime.default_path c));
          Alcotest.(check int) (label ^ ": batch moves when sanitized") 0
            (moves ~sanitizer:(Sanitize.create ()) (Runtime.default_path c));
          Alcotest.(check int) (label ^ ": batch moves on fibers") 0 (moves Runtime.Fiber))
        [ (H.With_lm, "with-lm", with_lm); (H.Without_lm, "grover", without_lm) ])
    Grover_suite.Suite.all

(* The access width travels in the info word: the widest element that
   fits comes back intact, and a wider one is rejected where the word is
   built. *)
let test_trace_width_field () =
  let s = Trace.fresh_stats ~wg_id:0 ~wg_size:4 in
  let e = { Trace.addr = 0x40; bytes = Trace.bytes_mask; is_write = true; space = Ssa.Local; wi = 3 } in
  Trace.push_event s e;
  Alcotest.(check bool) "widest width round-trips" true (Trace.events s = [ e ]);
  Alcotest.(check (triple int int int)) "counted" (0, 1, 1)
    (s.Trace.loads, s.Trace.stores, s.Trace.local_accesses);
  List.iter
    (fun bytes ->
      match Trace.push_event s { e with Trace.bytes } with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "a %d-byte access must be rejected" bytes)
    [ Trace.bytes_mask + 1; -4 ];
  Alcotest.(check int) "nothing more recorded" 1 s.Trace.n_events

(* -- Access counters agree with the recorded events --------------------------
   A group's [loads], [stores] and [local_accesses] are counted as its
   events are recorded: once per lane batch in the lane engine (active
   lanes only in a masked arm), once per event in the tree engine and in
   per-lane accesses. On W-wide batches and tree+fiber, every group's
   counters must equal the counts taken from its events, and the launch
   totals summed from them must equal tree+fiber's. *)

let event_counts (s : Trace.wg_stats) : int * int * int =
  let loads = ref 0 and stores = ref 0 and local = ref 0 in
  Trace.iter_events
    (fun e ->
      if e.Trace.is_write then incr stores else incr loads;
      if e.Trace.space = Ssa.Local then incr local)
    s;
  (!loads, !stores, !local)

(* [launch ~force_path ~on_group] on W-wide batches and tree+fiber. *)
let check_counters ~(label : string)
    (launch : force_path:Runtime.path -> on_group:(Trace.wg_stats -> unit) -> Trace.totals) =
  let runs =
    List.map
      (fun (p, pn) ->
        let groups = ref 0 and differ = ref 0 in
        let on_group (s : Trace.wg_stats) =
          incr groups;
          if (s.Trace.loads, s.Trace.stores, s.Trace.local_accesses) <> event_counts s then
            incr differ
        in
        let tot = launch ~force_path:p ~on_group in
        Alcotest.(check int)
          (Printf.sprintf "%s on %s: groups whose counters differ from their events" label pn)
          0 !differ;
        Alcotest.(check int) (Printf.sprintf "%s on %s: groups" label pn) tot.Trace.t_groups
          !groups;
        (pn, tot))
      [ (Runtime.Lanes, "W-wide batches"); (Runtime.Fiber, "tree+fiber") ]
  in
  let fiber = List.assoc "tree+fiber" runs in
  Alcotest.(check bool) (label ^ ": the launch accesses memory") true
    (fiber.Trace.t_loads + fiber.Trace.t_stores > 0);
  List.iter
    (fun (pn, tot) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s on %s: totals = tree+fiber's" label pn)
        true (tot = fiber))
    runs

let check_suite_counters (case : Kit.case) () =
  List.iter
    (fun (v, vn) ->
      let fn, _ = H.compile_version case v in
      let c = Interp.prepare fn in
      check_counters ~label:(Printf.sprintf "%s %s" case.Kit.id vn)
        (fun ~force_path ~on_group ->
          let w = case.Kit.mk ~scale:8 in
          let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
          Runtime.launch c ~cfg ~args:w.Kit.args ~mem:w.Kit.mem ~on_group ~force_path ()))
    [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ]

(* A masked diamond whose arms load: a global in the then arm, the
   work-item's own local slot in the else arm. *)
let masked_load_source =
  {|__kernel void k(__global float *out, __global const float *a,
                    __global const float *b) {
      __local float tile[64];
      int g = get_global_id(0);
      int l = get_local_id(0);
      float x = a[g];
      tile[l] = x + 1.0f;
      float y;
      if (x > 0.5f) { y = b[g] * 2.0f; } else { y = tile[l] - 3.0f; }
      out[g] = y;
    }|}

let test_masked_counters () =
  let fn = lower_one masked_load_source in
  (match Regions.form fn with
  | Regions.Formed i -> (
      match i.Regions.lane_entries.(0) with
      | Regions.Lane_masked 1 -> ()
      | lv -> Alcotest.failf "region 0 should hold one masked diamond, got: %s" (Regions.verdict_string lv))
  | Regions.Fallback r -> Alcotest.failf "unexpected fallback: %s" r);
  let c = Interp.prepare fn in
  let n = 120 and wg = 40 in
  check_counters ~label:"masked loads" (fun ~force_path ~on_group ->
      let mem = Memory.create () in
      let out = Memory.alloc mem Ssa.F32 n in
      let a = Memory.alloc mem Ssa.F32 n and b = Memory.alloc mem Ssa.F32 n in
      Memory.fill_floats a (fun i -> float_of_int (i * 13 mod 17) /. 8.0);
      Memory.fill_floats b (fun i -> float_of_int i);
      Runtime.launch c
        ~cfg:{ Runtime.global = (n, 1, 1); local = (wg, 1, 1); queues = 1 }
        ~args:[ Runtime.Abuf out; Runtime.Abuf a; Runtime.Abuf b ]
        ~mem ~on_group ~force_path ())

let counter_cases =
  List.map
    (fun (case : Kit.case) ->
      Alcotest.test_case case.Kit.id `Quick (check_suite_counters case))
    Grover_suite.Suite.all
  @ [ Alcotest.test_case "masked diamond with loads" `Quick test_masked_counters ]

(* -- A trap inside a lane batch poisons only its launch ---------------------------
   Two kernels index out of bounds only from lane 100 of a 256-item
   group (one batch at W = 256) when [k] is large: one in straight-line
   code, one inside a masked arm. Every launch with that [k] must raise
   [Memory.check]'s message, on one domain, on two, and through a queue.
   Relaunching the same compiled kernel with [k] = 0 then reuses what the
   aborted launches left behind: its lane state, on one domain, and each
   pool domain's cached context, on two. Buffers, totals and each group's
   trace and counters must equal a fresh kernel's, and a sanitized launch
   must report what it reports on a fresh kernel. *)

let trap_sources =
  [ ( "straight-line",
      {|__kernel void k(__global float *out, __global const float *a, int k) {
          int g = get_global_id(0);
          int l = get_local_id(0);
          __local float tile[256];
          tile[l] = a[g + (l / 100) * k];
          barrier(CLK_LOCAL_MEM_FENCE);
          out[g] = tile[255 - l];
        }|},
      None );
    ( "masked arm",
      {|__kernel void k(__global float *out, __global const float *a, int k) {
          int g = get_global_id(0);
          int l = get_local_id(0);
          float y;
          if (l >= 100) { y = a[g + k]; } else { y = a[g] + 1.0f; }
          out[g] = y;
        }|},
      Some 1 );
    ( "masked store",
      {|__kernel void k(__global float *out, __global float *a, int k) {
          int g = get_global_id(0);
          int l = get_local_id(0);
          float y = a[g];
          if (l >= 100) { a[g + k] = y + 1.0f; }
          out[g] = y;
        }|},
      Some 1 ) ]

let trap_n = 1024
let trap_wg = 256
let trap_k = 1 lsl 20

(* A fresh memory holding [out] (buffer 0) and [a] (buffer 1). *)
let trap_args ~k =
  let mem = Memory.create () in
  let out = Memory.alloc mem Ssa.F32 trap_n in
  let a = Memory.alloc mem Ssa.F32 trap_n in
  Memory.fill_floats a (fun i -> float_of_int (i mod 37));
  (mem, [ Runtime.Abuf out; Runtime.Abuf a; Runtime.Aint k ])

let trap_cfg = { Runtime.global = (trap_n, 1, 1); local = (trap_wg, 1, 1); queues = 1 }

(* Lane batches whatever [GROVER_FORCE_PATH] says: the traps under test
   are the lane engine's. *)
let trap_path = Runtime.Lanes

let test_trap_poisons_only_its_launch (label, src, masked) () =
  let fn = lower_one src in
  (match (Regions.form fn, masked) with
  | Regions.Formed i, Some d -> (
      match i.Regions.lane_entries.(0) with
      | Regions.Lane_masked d' when d' = d -> ()
      | lv -> Alcotest.failf "%s: region 0 should be masked, got: %s" label (Regions.verdict_string lv))
  | Regions.Formed _, None -> ()
  | Regions.Fallback r, _ -> Alcotest.failf "%s: unexpected fallback: %s" label r);
  let c = Interp.prepare fn in
  Alcotest.check path_t (label ^ ": one batch per group") Runtime.Lanes
    (Runtime.plan c ~cfg:trap_cfg ~force_path:trap_path ~domains:1 ()).Runtime.path;
  (* Lane 100 is each group's first access out of bounds, so every group
     traps. One domain stops at group 0; two domains and the queue keep
     the lowest trapping group's error, so they raise group 0's too. *)
  let traps what f =
    let want =
      Printf.sprintf "buffer 1 (global): element index %d out of bounds [0,%d)"
        (100 + trap_k) trap_n
    in
    match f () with
    | exception Invalid_argument m ->
        if m <> want then Alcotest.failf "%s: %s raised %S" label what m
    | _ -> Alcotest.failf "%s: %s did not trap" label what
  in
  let launch ?on_group ~domains c (mem, args) =
    Runtime.launch c ~cfg:trap_cfg ~args ~mem ?on_group ~domains ~force_path:trap_path ()
  in
  let traced c =
    let groups = ref [] in
    let ((mem, _) as ma) = trap_args ~k:0 in
    let tot = launch ~on_group:(fun s -> groups := group_trace s :: !groups) ~domains:1 c ma in
    (tot, snapshot_buffers mem, List.rev !groups)
  in
  let on_two c =
    let ((mem, _) as ma) = trap_args ~k:0 in
    let tot = with_domain_cap 2 (fun () -> launch ~domains:2 c ma) in
    (tot, snapshot_globals mem)
  in
  let queued c ~k =
    with_domain_cap 2 (fun () ->
        let q = Queue.create ~domains:2 () in
        let mem, args = trap_args ~k in
        let ev = Queue.enqueue_nd_range q c ~cfg:trap_cfg ~args ~force_path:trap_path () in
        Queue.finish q;
        (Event.totals ev, snapshot_globals mem))
  in
  let sanitized c ~k =
    let mem, args = trap_args ~k in
    let _, findings = Runtime.run_sanitized c ~cfg:trap_cfg ~args ~mem ~force_path:trap_path () in
    List.map Sanitize.message findings
  in
  let fresh () = Interp.prepare (lower_one src) in
  let f_traced = traced (fresh ()) and f_two = on_two (fresh ()) in
  let f_queued = queued (fresh ()) ~k:0 in
  let f_san_trap = sanitized (fresh ()) ~k:trap_k and f_san = sanitized (fresh ()) ~k:0 in
  Alcotest.(check int) (label ^ ": a fresh sanitized trap reports one finding") 1
    (List.length f_san_trap);
  traps "one domain" (fun () -> launch ~domains:1 c (trap_args ~k:trap_k));
  Alcotest.(check bool) (label ^ ": one domain, after a trap = fresh") true
    (compare (traced c) f_traced = 0);
  traps "two domains" (fun () ->
      with_domain_cap 2 (fun () -> launch ~domains:2 c (trap_args ~k:trap_k)));
  Alcotest.(check bool) (label ^ ": two domains, after a trap = fresh") true
    (compare (on_two c) f_two = 0);
  traps "queue" (fun () -> queued c ~k:trap_k);
  Alcotest.(check bool) (label ^ ": queue, after a trap = fresh") true
    (compare (queued c ~k:0) f_queued = 0);
  Alcotest.(check (list string)) (label ^ ": sanitized trap after traps = fresh") f_san_trap
    (sanitized c ~k:trap_k);
  Alcotest.(check (list string)) (label ^ ": sanitized launch after an abort = fresh") f_san
    (sanitized c ~k:0)

let trap_cases =
  List.map
    (fun ((label, _, _) as t) ->
      Alcotest.test_case label `Quick (test_trap_poisons_only_its_launch t))
    trap_sources

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
        Alcotest.test_case "divergent store plans W-wide batches" `Quick
          test_divergent_store_plans_wide;
        Alcotest.test_case "fiber request plans fiber" `Quick
          test_fiber_request_plans_fiber;
        Alcotest.test_case "lane batches hold at most 256 work-items" `Quick
          test_plan_group_limit;
        Alcotest.test_case "path_of_string" `Quick test_path_of_string;
        Alcotest.test_case "env_force_path" `Quick test_env_force_path ] );
    ( "private-arrays",
      [ Alcotest.test_case "private array across a barrier = tree+fiber" `Quick
          test_private_array_matches_fibers;
        Alcotest.test_case "a region that cannot run W-wide plans fibers" `Quick
          test_scalar_region_plans_fibers;
        Alcotest.test_case "private alloca after a barrier = tree+fiber" `Quick
          test_private_alloca_after_barrier ] );
    ( "masked-lanes",
      [ Alcotest.test_case "guarded diamonds classify as masked" `Quick
          test_masked_diamonds_classify;
        Alcotest.test_case "guarded store masks, divergent loop bails with a reason"
          `Quick test_divergent_store_masked_loop_bails;
        Alcotest.test_case "tail group smaller than lane width" `Quick
          test_masked_tail_smaller_than_width;
        QCheck_alcotest.to_alcotest prop_masked_diamond_agrees ] );
    ( "masked-stores",
      [ Alcotest.test_case "stores in masked arms = tree+fiber" `Quick test_masked_stores;
        Alcotest.test_case "inactive lanes out of bounds = tree+fiber" `Quick
          test_masked_store_inactive_out_of_bounds;
        QCheck_alcotest.to_alcotest prop_run_form_sound ] );
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
    ( "group-batches",
      [ Alcotest.test_case "values across two barriers = tree+fiber" `Quick
          test_group_batches_spill;
        Alcotest.test_case "group wider than W plans fibers = tree+fiber" `Quick
          test_group_wider_than_width_plans_fibers;
        Alcotest.test_case "uniform phi rotation = tree+fiber" `Quick
          (test_phi_rotation ~varying:false);
        Alcotest.test_case "varying phi rotation = tree+fiber" `Quick
          (test_phi_rotation ~varying:true) ] );
    ( "lane-verdicts",
      [ Alcotest.test_case "suite regions batch as pinned" `Quick
          test_suite_lane_flags ] );
    ( "record-census",
      [ Alcotest.test_case "suite records as pinned" `Quick test_record_census;
        Alcotest.test_case "batch moves: whole-group and run records only" `Quick
          test_batch_move_census ] );
    ( "batch-moves",
      [ Alcotest.test_case "affine batch moves = per-lane = tree+fiber" `Quick
          test_batch_moves_agree;
        Alcotest.test_case "last lane out of bounds traps as per lane" `Quick
          test_batch_move_last_lane_out_of_bounds ] );
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
    ( "trace-counters",
      Alcotest.test_case "width field" `Quick test_trace_width_field :: counter_cases );
    ("traps", trap_cases);
    ( "engine-differential-props",
      [ QCheck_alcotest.to_alcotest prop_engines_agree;
        QCheck_alcotest.to_alcotest prop_domain_count_invariant;
        QCheck_alcotest.to_alcotest prop_values_stay_in_lane_slots;
        QCheck_alcotest.to_alcotest prop_group_size_invariant ] ) ]
