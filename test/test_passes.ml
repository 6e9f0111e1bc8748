(* Unit tests for the optimisation passes added around Grover: CSE, LICM,
   work-item call canonicalisation and global-id expansion. *)

open Grover_ir
module Pass = Grover_passes

let compile1 src =
  match Lower.compile src with
  | [ fn ] -> fn
  | _ -> Alcotest.fail "expected one kernel"

let count p fn = Ssa.fold_instrs (fun n i -> if p i.Ssa.op then n + 1 else n) 0 fn

let count_calls name fn =
  count
    (function
      | Ssa.Call { callee; _ } when callee = name -> true | _ -> false)
    fn

(* -- canonicalisation --------------------------------------------------------- *)

let test_canon_unifies_workitem_calls () =
  let fn =
    compile1
      "__kernel void f(__global int *a) { a[get_local_id(0)] = get_local_id(0) + get_local_id(1); }"
  in
  ignore (Pass.Canon.run fn);
  Verify.run fn;
  Alcotest.(check int) "one get_local_id(0)" 2 (count_calls "get_local_id" fn)

let test_expand_global_ids () =
  let fn = compile1 "__kernel void f(__global int *a) { a[get_global_id(0)] = 1; }" in
  ignore (Pass.Canon.run fn);
  ignore (Pass.Canon.expand_global_ids fn);
  Verify.run fn;
  Alcotest.(check int) "gid call gone" 0 (count_calls "get_global_id" fn);
  Alcotest.(check int) "group id appears" 1 (count_calls "get_group_id" fn);
  Alcotest.(check int) "local size appears" 1 (count_calls "get_local_size" fn);
  Alcotest.(check int) "local id appears" 1 (count_calls "get_local_id" fn)

let test_expansion_preserves_semantics () =
  (* Executed result must be identical before/after expansion. *)
  let src = "__kernel void f(__global int *a) { a[get_global_id(0)] = get_global_id(0) * 3; }" in
  let run fn =
    let open Grover_ocl in
    let compiled = Interp.prepare fn in
    let mem = Memory.create () in
    let a = Memory.alloc mem Ssa.I32 32 in
    ignore
      (Runtime.launch compiled
         ~cfg:{ Runtime.global = (32, 1, 1); local = (8, 1, 1); queues = 1 }
         ~args:[ Runtime.Abuf a ] ~mem ());
    Memory.to_int_array a
  in
  let plain = run (compile1 src) in
  let fn = compile1 src in
  ignore (Pass.Canon.run fn);
  ignore (Pass.Canon.expand_global_ids fn);
  let expanded = run fn in
  Alcotest.(check bool) "same results" true (plain = expanded)

(* -- CSE ------------------------------------------------------------------------ *)

let test_cse_merges_duplicates () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int x, int y) { a[0] = (x + y) * (x + y); }"
  in
  ignore (Pass.Mem2reg.run fn);
  ignore (Pass.Cse.run fn);
  ignore (Pass.Dce.run fn);
  Verify.run fn;
  Alcotest.(check int) "one addition left" 1
    (count (function Ssa.Binop (Ssa.Add, _, _) -> true | _ -> false) fn)

let test_cse_commutative () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int x, int y) { a[0] = (x + y) + (y + x); }"
  in
  ignore (Pass.Mem2reg.run fn);
  ignore (Pass.Cse.run fn);
  ignore (Pass.Dce.run fn);
  Verify.run fn;
  (* x+y and y+x unify; one add computes the sum, one adds the two. *)
  Alcotest.(check int) "two additions" 2
    (count (function Ssa.Binop (Ssa.Add, _, _) -> true | _ -> false) fn)

let test_cse_does_not_merge_loads () =
  (* Loads are not pure (stores may intervene): never merged. *)
  let fn =
    compile1
      "__kernel void f(__global int *a) { int v = a[0]; a[0] = v + 1; int w = a[0]; a[1] = w; }"
  in
  Pass.Pipeline.normalize fn;
  Alcotest.(check int) "two loads survive" 2
    (count (function Ssa.Load _ -> true | _ -> false) fn)

let test_cse_respects_dominance () =
  (* The same expression in two sibling branches must NOT merge (neither
     dominates the other). *)
  let fn =
    compile1
      {|__kernel void f(__global int *a, int x, int n) {
          if (n > 0) a[0] = x * 7; else a[1] = x * 7;
        }|}
  in
  ignore (Pass.Mem2reg.run fn);
  ignore (Pass.Cse.run fn);
  Verify.run fn;
  Alcotest.(check int) "both multiplications survive" 2
    (count (function Ssa.Binop (Ssa.Mul, _, _) -> true | _ -> false) fn)

(* [c = b*2] reads the duplicate [b] of [a]: it merges with [d = a*2] in the
   same run only if the merge of [b] reaches [c] before [c] is keyed. *)
let test_cse_chain_one_run () =
  let arg i n t = { Ssa.a_index = i; a_name = n; a_ty = t } in
  let x = arg 0 "x" Ssa.I32 and y = arg 1 "y" Ssa.I32
  and out = arg 2 "out" (Ssa.Ptr (Ssa.Global, Ssa.I32)) in
  let fn, b = Builder.create_function ~name:"f" ~args:[ x; y; out ] in
  let a = Builder.binop b Ssa.Add (Ssa.Arg x) (Ssa.Arg y) in
  let dup = Builder.binop b Ssa.Add (Ssa.Arg x) (Ssa.Arg y) in
  let c = Builder.binop b Ssa.Mul dup (Builder.i32 2) in
  let d = Builder.binop b Ssa.Mul a (Builder.i32 2) in
  Builder.store b (Ssa.Arg out) (Builder.i32 0) c;
  Builder.store b (Ssa.Arg out) (Builder.i32 1) d;
  Builder.ret b;
  Alcotest.(check bool) "changed" true (Pass.Cse.run fn);
  Verify.run fn;
  Alcotest.(check int) "one multiply" 1
    (count (function Ssa.Binop (Ssa.Mul, _, _) -> true | _ -> false) fn);
  Alcotest.(check int) "one addition" 1
    (count (function Ssa.Binop (Ssa.Add, _, _) -> true | _ -> false) fn)

(* The structural keys against the printed ones they replaced
   ([Test_pass_manager.Old_cse]): the operand order has the sign of
   [String.compare] on the old strings, and two pure opcodes get equal keys
   exactly when their old strings are equal. Operands are drawn to hit the
   places where text and numbers disagree: argument indices 0-20 ("a:10" <
   "a:9"), integers of every width and sign, both zeros and infinities,
   NaNs of both signs with several payloads, instruction ids on both sides
   of a change of digit count, and operands whose old strings are equal
   (one argument index under two names, a constant of a non-integer type). *)
module Old_cse = Test_pass_manager.Old_cse

let gen_operand : Ssa.value QCheck.Gen.t =
  let open QCheck.Gen in
  let instr iid = Ssa.Vinstr { Ssa.iid; op = Ssa.Ret; parent = None; iloc = Grover_support.Loc.dummy } in
  let ty = oneofl Ssa.[ I1; I8; I16; I32; I64; F32; Vec (I32, 4); Ptr (Global, F32) ] in
  let nan_bits =
    oneofl [ 0x7ff8000000000000L; 0x7ff0000000000001L; 0x7ff8000000000abcL;
             0xfff8000000000000L; 0xfff0000000000123L; -1L ]
  in
  frequency
    [ (3, map3 (fun i n t -> Ssa.Arg { Ssa.a_index = i; a_name = n; a_ty = t })
            (int_range 0 20) (oneofl [ "p"; "q" ]) ty);
      (3, map2 (fun t n -> Ssa.Cint (t, n)) ty
            (oneof [ int_range (-12) 12; oneofl [ min_int; max_int; 255; -256; 65535 ]; int ]));
      (1, map (fun f -> Ssa.Cfloat f)
            (oneofl [ 0.0; -0.0; infinity; neg_infinity; 1.0; -1.5; 4.9e-324; max_float ]));
      (1, map (fun b -> Ssa.Cfloat (Int64.float_of_bits b)) nan_bits);
      (1, map (fun f -> Ssa.Cfloat f) float);
      (3, map instr (oneof [ oneofl [ 9; 10; 99; 100; 999; 1000 ]; int_range 1 2000 ])) ]

let print_operand = Old_cse.value_key

let sign n = compare n 0

let prop_cse_operand_order =
  QCheck.Test.make ~name:"operand order is the old string order" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair print_operand print_operand)
       QCheck.Gen.(pair gen_operand gen_operand))
    (fun (x, y) ->
      sign (Pass.Cse.compare_values x y)
      = sign (String.compare (Old_cse.value_key x) (Old_cse.value_key y)))

(* Another value with the same old string, where there is one: another
   NaN payload of the same sign, the argument index under another name
   and type, the constant under another non-integer type, a second record
   with the instruction's id. *)
let gen_alias (v : Ssa.value) : Ssa.value QCheck.Gen.t =
  let open QCheck.Gen in
  match v with
  | Ssa.Cfloat f when Float.is_nan f ->
      map
        (fun p ->
          Ssa.Cfloat
            (Int64.float_of_bits
               (Int64.logor (Int64.logand (Int64.bits_of_float f) Int64.min_int)
                  (Int64.logor 0x7ff0000000000000L (Int64.of_int (1 + p))))))
        (int_bound 1_000_000)
  | Ssa.Arg a -> return (Ssa.Arg { a with Ssa.a_name = a.Ssa.a_name ^ "'"; a_ty = Ssa.I64 })
  | Ssa.Cint ((Ssa.F32 | Ssa.Vec _ | Ssa.Ptr _), n) ->
      map (fun t -> Ssa.Cint (t, n)) (oneofl Ssa.[ F32; Vec (I32, 4); Ptr (Global, F32) ])
  | Ssa.Vinstr i -> return (Ssa.Vinstr { i with Ssa.op = Ssa.Ret })
  | v -> return v

(* Two opcodes over a small pool of operands, each next to an alias, so
   that equal keys are common. *)
let gen_opcode_pair : (Ssa.opcode * Ssa.opcode) QCheck.Gen.t =
  let open QCheck.Gen in
  let* base = list_repeat 2 gen_operand in
  let* aliases = flatten_l (List.map gen_alias base) in
  let v = oneofl (base @ aliases) in
  let ty = oneofl Ssa.[ I32; F32; Vec (F32, 4) ] in
  let op =
    oneof
      [ map3 (fun b x y -> Ssa.Binop (b, x, y)) (oneofl Ssa.[ Add; Sub; Fadd ]) v v;
        map3 (fun c x y -> Ssa.Icmp (c, x, y)) (oneofl Ssa.[ Ieq; Islt ]) v v;
        map3 (fun c x y -> Ssa.Fcmp (c, x, y)) (oneofl Ssa.[ Foeq; Folt ]) v v;
        map3 (fun c x y -> Ssa.Select (c, x, y)) v v v;
        map3 (fun k x t -> Ssa.Cast (k, x, t)) (oneofl Ssa.[ Sext; Bitcast ]) v ty;
        map2 (fun x l -> Ssa.Extract (x, l)) v v;
        map3 (fun x l s -> Ssa.Insert (x, l, s)) v v v;
        map2 (fun t vs -> Ssa.Vecbuild (t, vs)) ty (list_size (int_range 0 3) v);
        map3
          (fun callee args ret -> Ssa.Call { callee; args; ret })
          (oneofl [ "sqrt"; "get_local_id" ]) (list_size (int_range 0 2) v) ty;
        map2 (fun p i -> Ssa.Load { ptr = p; index = i }) v v ]
  in
  pair op op

let prop_cse_keys_match_strings =
  QCheck.Test.make ~name:"equal keys exactly when the old strings are equal" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%s / %s"
           (Option.value ~default:"impure" (Old_cse.opcode_key a))
           (Option.value ~default:"impure" (Old_cse.opcode_key b)))
       gen_opcode_pair)
    (fun (a, b) ->
      (Pass.Cse.opcode_key a = Pass.Cse.opcode_key b)
      = (Old_cse.opcode_key a = Old_cse.opcode_key b)
      && Option.is_some (Pass.Cse.opcode_key a) = Option.is_some (Old_cse.opcode_key a))

(* -- LICM ------------------------------------------------------------------------ *)

let licm_kernel =
  {|__kernel void f(__global int *a, int n, int x, int y) {
      for (int i = 0; i < n; i++) {
        a[i] = i + (x * y + 5);
      }
    }|}

let in_loop_muls fn =
  (* Count multiplications located in blocks that are part of a loop (have a
     back edge). After LICM the x*y must live in a preheader. *)
  let dom = Dom.compute fn in
  let loops = Pass.Licm.find_loops fn dom in
  List.fold_left
    (fun acc (l : Pass.Licm.loop) ->
      Hashtbl.fold
        (fun bid () acc ->
          match List.find_opt (fun b -> b.Ssa.bid = bid) fn.Ssa.blocks with
          | Some b ->
              acc
              + List.length
                  (List.filter
                     (fun i ->
                       match i.Ssa.op with Ssa.Binop (Ssa.Mul, _, _) -> true | _ -> false)
                     b.Ssa.instrs)
          | None -> acc)
        l.Pass.Licm.blocks acc)
    0 loops

let test_licm_hoists_invariant () =
  let fn = compile1 licm_kernel in
  ignore (Pass.Mem2reg.run fn);
  let before = in_loop_muls fn in
  ignore (Pass.Licm.run fn);
  Verify.run fn;
  let after = in_loop_muls fn in
  Alcotest.(check bool) "had a mul in the loop" true (before > 0);
  Alcotest.(check int) "no mul left in the loop" 0 after

let test_licm_preserves_semantics () =
  let run fn =
    let open Grover_ocl in
    let compiled = Interp.prepare fn in
    let mem = Memory.create () in
    let a = Memory.alloc mem Ssa.I32 16 in
    ignore
      (Runtime.launch compiled
         ~cfg:{ Runtime.global = (1, 1, 1); local = (1, 1, 1); queues = 1 }
         ~args:
           [ Runtime.Abuf a; Runtime.Aint 16; Runtime.Aint 3; Runtime.Aint 4 ]
         ~mem ());
    Memory.to_int_array a
  in
  let plain =
    let fn = compile1 licm_kernel in
    ignore (Pass.Mem2reg.run fn);
    run fn
  in
  let hoisted =
    let fn = compile1 licm_kernel in
    ignore (Pass.Mem2reg.run fn);
    ignore (Pass.Licm.run fn);
    run fn
  in
  Alcotest.(check bool) "same results" true (plain = hoisted)

let test_licm_keeps_guarded_division () =
  (* x / n inside "if (n != 0)" must not be hoisted past the guard. *)
  let fn =
    compile1
      {|__kernel void f(__global int *a, int n, int x) {
          for (int i = 0; i < 4; i++) {
            if (n != 0) a[i] = x / n;
            else a[i] = 0;
          }
        }|}
  in
  ignore (Pass.Mem2reg.run fn);
  ignore (Pass.Licm.run fn);
  Verify.run fn;
  (* Run with n = 0: must not trap. *)
  let open Grover_ocl in
  let compiled = Interp.prepare fn in
  let mem = Memory.create () in
  let a = Memory.alloc mem Ssa.I32 4 in
  ignore
    (Runtime.launch compiled
       ~cfg:{ Runtime.global = (1, 1, 1); local = (1, 1, 1); queues = 1 }
       ~args:[ Runtime.Abuf a; Runtime.Aint 0; Runtime.Aint 7 ]
       ~mem ());
  Alcotest.(check (list int)) "zeros" [ 0; 0; 0; 0 ]
    (Array.to_list (Memory.to_int_array a))

(* LICM after Grover: the re-created nGL index terms that do not depend on
   the loop hoist out of it. *)
let test_licm_after_grover () =
  let src =
    {|__kernel void f(__global float *out, __global const float *in, int n) {
        __local float sh[64];
        int lx = get_local_id(0);
        float acc = 0.0f;
        for (int t = 0; t < n / 64; t++) {
          sh[lx] = in[t * 64 + lx];
          barrier(CLK_LOCAL_MEM_FENCE);
          for (int j = 0; j < 64; j++) {
            acc += sh[j];
          }
          barrier(CLK_LOCAL_MEM_FENCE);
        }
        out[get_global_id(0)] = acc;
      }|}
  in
  let fn = compile1 src in
  Pass.Pipeline.normalize fn;
  let o = Grover_core.Grover.run fn in
  Alcotest.(check (list string)) "transformed" [ "sh" ] o.Grover_core.Grover.transformed;
  Verify.run fn;
  (* The multiplication t*64 of the nGL index is invariant in the inner j
     loop; after cleanup (which includes LICM) the inner loop body must not
     contain it. *)
  let dom = Dom.compute fn in
  let loops = Pass.Licm.find_loops fn dom in
  Alcotest.(check bool) "loops found" true (List.length loops >= 2);
  let inner_has_shl_or_mul =
    List.exists
      (fun (l : Pass.Licm.loop) ->
        (* inner loop: contains the nGL load (from "in") *)
        let contains_ngl = ref false and has_mul = ref false in
        Hashtbl.iter
          (fun bid () ->
            match List.find_opt (fun b -> b.Ssa.bid = bid) fn.Ssa.blocks with
            | Some b ->
                List.iter
                  (fun i ->
                    match i.Ssa.op with
                    | Ssa.Load { ptr = Ssa.Arg { a_name = "in"; _ }; _ } ->
                        contains_ngl := true
                    | Ssa.Binop ((Ssa.Mul | Ssa.Shl), _, Ssa.Cint (_, 64)) ->
                        has_mul := true
                    | _ -> ())
                  b.Ssa.instrs
            | None -> ())
          l.Pass.Licm.blocks;
        (* The inner loop contains the nGL but its t*64 was hoisted; only
           loops that also contain the staging (outer) may keep it. *)
        !contains_ngl && !has_mul
        && not (Hashtbl.length l.Pass.Licm.blocks > 4))
      loops
  in
  Alcotest.(check bool) "t*64 hoisted from the inner loop" false
    inner_has_shl_or_mul

(* -- DCE ------------------------------------------------------------------------
   Dead code is what no store, barrier or terminator reaches through
   operands, so a cycle of values that only use each other goes: the
   phi pair mem2reg gives a variable that is assigned in a loop and never
   read, and an induction variable nothing reads. A loop-carried phi that
   a store reads stays. *)

let phis fn = count (function Ssa.Phi _ -> true | _ -> false) fn

let dce_after_mem2reg src =
  let fn = compile1 src in
  ignore (Pass.Mem2reg.run fn);
  let before = phis fn in
  ignore (Pass.Dce.run fn);
  Verify.run fn;
  (fn, before)

let test_dce_dead_phi_cycle () =
  let fn, before =
    dce_after_mem2reg
      {|__kernel void f(__global int *a, int n) {
          int s = 0;
          int t = 0;
          for (int i = 0; i < n; i++) {
            if (a[i] > 0) t = a[i];
            s += a[i];
          }
          a[0] = s;
        }|}
  in
  Alcotest.(check int) "phis of i, s and t's pair after mem2reg" 4 before;
  Alcotest.(check int) "t's phi pair gone: the phis of i and s stay" 2 (phis fn)

let test_dce_dead_induction_cycle () =
  let fn, before =
    dce_after_mem2reg
      {|__kernel void f(__global int *a, int n) {
          int j = 0;
          for (int i = 0; i < n; i++) { j = j + 3; a[i] = i; }
        }|}
  in
  Alcotest.(check int) "phis of i and j after mem2reg" 2 before;
  Alcotest.(check int) "j's phi gone" 1 (phis fn);
  Alcotest.(check int) "j's add gone" 0
    (count (function Ssa.Binop (Ssa.Add, _, Ssa.Cint (_, 3)) -> true | _ -> false) fn)

let test_dce_live_phi_stays () =
  let src =
    {|__kernel void f(__global int *a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { int t = a[i] * 2; s += t; }
        a[n] = s;
      }|}
  in
  let fn, _ = dce_after_mem2reg src in
  Alcotest.(check int) "the phis of i and s stay" 2 (phis fn);
  let open Grover_ocl in
  let mem = Memory.create () in
  let a = Memory.alloc mem Ssa.I32 9 in
  Memory.fill_ints a (fun i -> i + 1);
  ignore
    (Runtime.launch (Interp.prepare fn)
       ~cfg:{ Runtime.global = (1, 1, 1); local = (1, 1, 1); queues = 1 }
       ~args:[ Runtime.Abuf a; Runtime.Aint 8 ] ~mem ());
  Alcotest.(check int) "a[8] = 2 * (1 + ... + 8)" 72 (Memory.to_int_array a).(8)

(* Removing dead cycles removed only phis from the suite (NBody's inner
   loop), which cost nothing: each version's launch totals at scale 8
   (int, float and special ops, branches, barriers, loads, stores, local
   accesses) are the ones the use-count DCE gave. *)
let expected_suite_totals =
  [ ("AMD-SS", (290816, 0, 0, 139264, 4096, 132096, 5120, 66560),
      (290816, 0, 0, 139264, 0, 131072, 4096, 0));
    ("AMD-MT", (12800, 0, 0, 0, 256, 2048, 2048, 2048),
      (6656, 0, 0, 0, 0, 1024, 1024, 0));
    ("NVD-MT", (22528, 0, 0, 0, 1024, 2048, 2048, 2048),
      (18432, 0, 0, 0, 0, 1024, 1024, 0));
    ("AMD-RG", (4608, 0, 0, 0, 256, 512, 512, 512),
      (3072, 0, 0, 0, 0, 256, 256, 0));
    ("AMD-MM", (4160, 4096, 0, 704, 128, 1088, 128, 576),
      (4352, 4096, 0, 704, 0, 1024, 64, 0));
    ("NVD-MM-A", (27392, 8192, 0, 5120, 512, 8704, 768, 8704),
      (27136, 8192, 0, 5120, 512, 8448, 512, 4352));
    ("NVD-MM-B", (27392, 8192, 0, 5120, 512, 8704, 768, 8704),
      (30720, 8192, 0, 5120, 512, 8448, 512, 4352));
    ("NVD-MM-AB", (27392, 8192, 0, 5120, 512, 8704, 768, 8704),
      (29952, 8192, 0, 5120, 0, 8192, 256, 0));
    ("NVD-NBody", (35072, 294912, 16384, 17152, 512, 16768, 384, 16640),
      (51200, 294912, 16384, 17152, 0, 16512, 128, 0));
    ("PAB-ST", (15552, 2560, 0, 512, 512, 3136, 1088, 2112),
      (14336, 2560, 0, 512, 0, 2560, 512, 0));
    ("ROD-SC", (36480, 24576, 0, 9216, 512, 16512, 640, 8320),
      (44544, 24576, 0, 9216, 0, 16384, 512, 0));
    ("TNG-GEMM4", (30464, 32768, 0, 4864, 512, 8448, 512, 4352),
      (29696, 32768, 0, 4864, 0, 8192, 256, 0)) ]

let test_dce_suite_totals () =
  let module H = Grover_suite.Harness in
  let module Kit = Grover_suite.Kit in
  let open Grover_ocl in
  Alcotest.(check int) "every suite case pinned"
    (List.length Grover_suite.Suite.all)
    (List.length expected_suite_totals);
  List.iter
    (fun (c : Kit.case) ->
      let _, with_lm, without_lm =
        List.find (fun (id, _, _) -> id = c.Kit.id) expected_suite_totals
      in
      List.iter
        (fun (v, vn, want) ->
          let fn, _ = H.compile_version c v in
          let w = c.Kit.mk ~scale:8 in
          let cfg = { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 } in
          let t = Runtime.launch (Interp.prepare fn) ~cfg ~args:w.Kit.args ~mem:w.Kit.mem () in
          let got =
            ( t.Trace.t_int_ops,
              t.Trace.t_float_ops,
              t.Trace.t_special_ops,
              t.Trace.t_branches,
              t.Trace.t_barriers,
              t.Trace.t_loads,
              t.Trace.t_stores,
              t.Trace.t_local_accesses )
          in
          Alcotest.(check bool) (Printf.sprintf "%s %s: launch totals" c.Kit.id vn) true (got = want))
        [ (H.With_lm, "with-lm", with_lm); (H.Without_lm, "grover", without_lm) ])
    Grover_suite.Suite.all

let suite =
  [ ( "canon",
      [ Alcotest.test_case "unifies work-item calls" `Quick
          test_canon_unifies_workitem_calls;
        Alcotest.test_case "expands global ids" `Quick test_expand_global_ids;
        Alcotest.test_case "expansion preserves semantics" `Quick
          test_expansion_preserves_semantics ] );
    ( "cse",
      [ Alcotest.test_case "merges duplicates" `Quick test_cse_merges_duplicates;
        Alcotest.test_case "commutative" `Quick test_cse_commutative;
        Alcotest.test_case "does not merge loads" `Quick test_cse_does_not_merge_loads;
        Alcotest.test_case "respects dominance" `Quick test_cse_respects_dominance;
        Alcotest.test_case "a chain merges in one run" `Quick test_cse_chain_one_run;
        QCheck_alcotest.to_alcotest prop_cse_operand_order;
        QCheck_alcotest.to_alcotest prop_cse_keys_match_strings ] );
    ( "licm",
      [ Alcotest.test_case "hoists invariants" `Quick test_licm_hoists_invariant;
        Alcotest.test_case "preserves semantics" `Quick test_licm_preserves_semantics;
        Alcotest.test_case "keeps guarded division" `Quick
          test_licm_keeps_guarded_division;
        Alcotest.test_case "after grover" `Quick test_licm_after_grover ] );
    ( "dce",
      [ Alcotest.test_case "dead phi cycle removed" `Quick test_dce_dead_phi_cycle;
        Alcotest.test_case "dead induction cycle removed" `Quick test_dce_dead_induction_cycle;
        Alcotest.test_case "live loop-carried phi stays" `Quick test_dce_live_phi_stays;
        Alcotest.test_case "suite launch totals unchanged" `Quick test_dce_suite_totals ] ) ]
