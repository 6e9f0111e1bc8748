(* IR tests: lowering, verification, dominators, mem2reg, simplify, DCE. *)

open Grover_ir
module Pass = Grover_passes

let compile src = Lower.compile src

let compile1 src =
  match compile src with
  | [ fn ] -> fn
  | fns -> Alcotest.failf "expected 1 function, got %d" (List.length fns)

let normalized src =
  let fn = compile1 src in
  Pass.Pipeline.normalize fn;
  fn

let count_op p fn = Ssa.fold_instrs (fun n i -> if p i.Ssa.op then n + 1 else n) 0 fn

let is_load = function Ssa.Load _ -> true | _ -> false
let is_store = function Ssa.Store _ -> true | _ -> false
let is_alloca = function Ssa.Alloca _ -> true | _ -> false
let is_phi = function Ssa.Phi _ -> true | _ -> false
let is_barrier = function Ssa.Barrier _ -> true | _ -> false

let mt_source =
  {|
#define S 16
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

(* -- Lowering -------------------------------------------------------------- *)

let test_lower_verifies () =
  let fn = compile1 mt_source in
  Verify.run fn (* raises on malformed IR *)

let test_lower_local_alloca () =
  let fn = compile1 mt_source in
  let found = ref false in
  Ssa.iter_instrs
    (fun i ->
      match i.Ssa.op with
      | Ssa.Alloca { aspace = Ssa.Local; count; _ } ->
          found := true;
          Alcotest.(check int) "S*S elements" 256 count
      | _ -> ())
    fn;
  Alcotest.(check bool) "local alloca present" true !found

let test_lower_barrier () =
  let fn = compile1 mt_source in
  Alcotest.(check int) "one local barrier" 1
    (count_op
       (function Ssa.Barrier { blocal = true; _ } -> true | _ -> false)
       fn)

let test_lower_if_control_flow () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { if (n > 0) a[0] = 1; else a[0] = 2; }"
  in
  Verify.run fn;
  Alcotest.(check bool) "at least 4 blocks" true (List.length fn.Ssa.blocks >= 4)

let test_lower_loop_verifies () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { for (int i = 0; i < n; i++) a[i] = 2 * i; }"
  in
  Verify.run fn

let test_lower_vector_ops () =
  let fn =
    compile1
      {|__kernel void f(__global float4 *a) {
          float4 v = a[0];
          v.x = v.y + 1.0f;
          a[1] = v * v;
        }|}
  in
  Verify.run fn;
  Alcotest.(check bool) "has extract" true
    (count_op (function Ssa.Extract _ -> true | _ -> false) fn > 0);
  Alcotest.(check bool) "has insert" true
    (count_op (function Ssa.Insert _ -> true | _ -> false) fn > 0)

let test_lower_type_error () =
  match compile "__kernel void f(__global float *a) { a[0] = a; }" with
  | exception Grover_clc.Loc.Error _ -> ()
  | _ -> Alcotest.fail "storing a pointer into float must be rejected"

let test_lower_unknown_var () =
  match compile "__kernel void f() { x = 1; }" with
  | exception Grover_clc.Loc.Error _ -> ()
  | _ -> Alcotest.fail "unknown variable must be rejected"

(* -- mem2reg ----------------------------------------------------------------- *)

let test_mem2reg_promotes_scalars () =
  let fn = compile1 mt_source in
  ignore (Pass.Mem2reg.run fn);
  Verify.run fn;
  (* All private single slots promoted: remaining allocas are local only. *)
  Ssa.iter_instrs
    (fun i ->
      match i.Ssa.op with
      | Ssa.Alloca { aspace; _ } ->
          Alcotest.(check bool) "only local allocas remain" true (aspace = Ssa.Local)
      | _ -> ())
    fn

let test_mem2reg_loop_phi () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s = s + i; a[0] = s; }"
  in
  ignore (Pass.Mem2reg.run fn);
  Verify.run fn;
  Alcotest.(check bool) "loop-carried phi exists" true (count_op is_phi fn > 0)

let test_mem2reg_if_phi () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { int v; if (n > 0) v = 1; else v = 2; a[0] = v; }"
  in
  ignore (Pass.Mem2reg.run fn);
  Verify.run fn;
  Alcotest.(check int) "one merge phi" 1 (count_op is_phi fn)

let test_mem2reg_no_trivial_phi () =
  (* A variable assigned identically on both arms must not keep a phi after
     trivial-phi removal... it will have two distinct constants, so instead
     check a genuinely invariant variable. *)
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { int c = 7; if (n > 0) a[0] = c; else a[1] = c; a[2] = c; }"
  in
  ignore (Pass.Mem2reg.run fn);
  Verify.run fn;
  Alcotest.(check int) "no phi for the invariant" 0 (count_op is_phi fn)

(* [v = v] under a branch in a loop places a phi at the join whose arms
   both read the loop header's phi, which then only merges [x] with
   itself: removing the first makes the second trivial, and every use of
   [v] must end up reading [x]. *)
let test_mem2reg_trivial_phi_chain () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int x, int n) { int v = x; for (int i = \
       0; i < n; i++) { if (i > 2) v = v; } a[0] = v; }"
  in
  ignore (Pass.Mem2reg.run fn);
  Verify.run fn;
  Alcotest.(check int) "only the counter's phi" 1 (count_op is_phi fn);
  let stored =
    Ssa.fold_instrs
      (fun acc i ->
        match i.Ssa.op with Ssa.Store { v; _ } -> v :: acc | _ -> acc)
      [] fn
  in
  Alcotest.(check bool) "a[0] stores x" true
    (match stored with [ Ssa.Arg { Ssa.a_name = "x"; _ } ] -> true | _ -> false)

let test_mem2reg_keeps_arrays () =
  let fn =
    compile1
      "__kernel void f(__global int *a) { int t[4]; t[0] = 1; t[1] = 2; a[0] = t[0] + t[1]; }"
  in
  ignore (Pass.Mem2reg.run fn);
  Verify.run fn;
  Alcotest.(check bool) "array alloca kept" true (count_op is_alloca fn > 0)

(* -- simplify / dce ----------------------------------------------------------- *)

let test_simplify_constant_folding () =
  let fn = compile1 "__kernel void f(__global int *a) { a[0] = 2 + 3 * 4; }" in
  Pass.Pipeline.normalize fn;
  (* The store's value must be the constant 14. *)
  let ok = ref false in
  Ssa.iter_instrs
    (fun i ->
      match i.Ssa.op with
      | Ssa.Store { v = Ssa.Cint (_, 14); _ } -> ok := true
      | _ -> ())
    fn;
  Alcotest.(check bool) "folded to 14" true !ok

let test_simplify_identities () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int x) { a[0] = (x + 0) * 1 + (x - x) * 99; }"
  in
  Pass.Pipeline.normalize fn;
  (* After simplification the store's value is just the argument x. *)
  let ok = ref false in
  Ssa.iter_instrs
    (fun i ->
      match i.Ssa.op with
      | Ssa.Store { v = Ssa.Arg a; _ } when a.Ssa.a_name = "x" -> ok := true
      | _ -> ())
    fn;
  Alcotest.(check bool) "reduced to x" true !ok

let test_simplify_dead_branch () =
  let fn =
    compile1 "__kernel void f(__global int *a) { if (0) a[0] = 1; else a[0] = 2; }"
  in
  Pass.Pipeline.normalize fn;
  Alcotest.(check int) "single store survives" 1 (count_op is_store fn)

let test_dce_removes_dead_code () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int x) { int dead = x * 37 + 5; a[0] = x; }"
  in
  Pass.Pipeline.normalize fn;
  Alcotest.(check int) "no arithmetic left" 0
    (count_op (function Ssa.Binop _ -> true | _ -> false) fn)

let test_dce_keeps_stores () =
  let fn = normalized "__kernel void f(__global int *a, int x) { a[0] = x; }" in
  Alcotest.(check int) "store kept" 1 (count_op is_store fn)

let test_dce_write_only_local () =
  (* A local array that is written but never read disappears entirely. *)
  let fn =
    normalized
      {|__kernel void f(__global int *a, int x) {
          __local int tmp[16];
          tmp[get_local_id(0)] = x;
          a[0] = x;
        }|}
  in
  Alcotest.(check int) "write-only local removed" 0 (count_op is_alloca fn)

(* -- normalization shape (what Grover relies on) ------------------------------- *)

let test_normalize_index_leaves () =
  (* After normalize, the MT store index chain must bottom out at calls,
     constants and arguments only (plus no loads of scalars). *)
  let fn = normalized mt_source in
  Verify.run fn;
  let ok = ref true in
  let rec check_value v =
    match v with
    | Ssa.Cint _ | Ssa.Cfloat _ | Ssa.Arg _ -> ()
    | Ssa.Vinstr i -> (
        match i.Ssa.op with
        | Ssa.Call _ | Ssa.Phi _ -> ()
        | Ssa.Binop _ | Ssa.Cast _ ->
            List.iter check_value (Ssa.operands i.Ssa.op)
        | Ssa.Load _ -> () (* the GL load itself *)
        | _ -> ok := false)
  in
  Ssa.iter_instrs
    (fun i ->
      match i.Ssa.op with
      | Ssa.Store { index; _ } | Ssa.Load { index; _ } -> check_value index
      | _ -> ())
    fn;
  Alcotest.(check bool) "index chains are normal" true !ok

let test_printer_roundtrip_stability () =
  let fn = normalized mt_source in
  let s1 = Printer.func_to_string fn in
  let s2 = Printer.func_to_string fn in
  Alcotest.(check string) "printing is deterministic" s1 s2;
  Alcotest.(check bool) "mentions kernel name" true
    (String.length s1 > 0
    &&
    let re = "transpose" in
    let found = ref false in
    for i = 0 to String.length s1 - String.length re do
      if String.sub s1 i (String.length re) = re then found := true
    done;
    !found)

(* -- verifier negatives ----------------------------------------------------------- *)

let expect_invalid name build =
  match build () with
  | exception Verify.Invalid_ir _ -> ()
  | () -> Alcotest.failf "%s: verifier accepted malformed IR" name

let test_verify_missing_terminator () =
  expect_invalid "missing terminator" (fun () ->
      let fn, _ = Builder.create_function ~name:"bad" ~args:[] in
      Verify.run fn)

let test_verify_type_mismatch () =
  expect_invalid "binop type mismatch" (fun () ->
      let fn, b = Builder.create_function ~name:"bad" ~args:[] in
      ignore (Builder.binop b Ssa.Add (Builder.i32 1) (Builder.f32 2.0));
      Builder.ret b;
      Verify.run fn)

let test_verify_float_op_on_ints () =
  expect_invalid "fadd on ints" (fun () ->
      let fn, b = Builder.create_function ~name:"bad" ~args:[] in
      ignore (Builder.binop b Ssa.Fadd (Builder.i32 1) (Builder.i32 2));
      Builder.ret b;
      Verify.run fn)

let test_verify_store_type_mismatch () =
  expect_invalid "store type mismatch" (fun () ->
      let fn, b = Builder.create_function ~name:"bad" ~args:[] in
      let p = Builder.alloca b Ssa.Private Ssa.F32 1 in
      Builder.store b p (Builder.i32 0) (Builder.i32 7);
      Builder.ret b;
      Verify.run fn)

let test_verify_cond_on_non_i1 () =
  expect_invalid "cond_br on i32" (fun () ->
      let fn, b = Builder.create_function ~name:"bad" ~args:[] in
      let blk1 = Builder.new_block b "a" in
      let blk2 = Builder.new_block b "b" in
      Builder.cond_br b (Builder.i32 1) blk1 blk2;
      Builder.set_block b blk1;
      Builder.ret b;
      Builder.set_block b blk2;
      Builder.ret b;
      Verify.run fn)

let test_verify_use_before_def () =
  expect_invalid "use before def" (fun () ->
      let fn, b = Builder.create_function ~name:"bad" ~args:[] in
      (* Build v2 = v1 + 1 with v1 defined *after* v2 in the block. *)
      let blk = Builder.current b in
      let v1 = Ssa.fresh_instr (Ssa.Binop (Ssa.Add, Builder.i32 1, Builder.i32 2)) in
      let v2 = Ssa.fresh_instr (Ssa.Binop (Ssa.Add, Ssa.Vinstr v1, Builder.i32 1)) in
      Ssa.append_instr blk v2;
      Ssa.append_instr blk v1;
      (* Keep both alive through a store so DCE-style reasoning is moot. *)
      let p = Builder.alloca b Ssa.Private Ssa.I32 1 in
      Builder.store b p (Builder.i32 0) (Ssa.Vinstr v2);
      Builder.ret b;
      Verify.run fn)

(* Vector components are addressed by in-range constants only: a dynamic
   lane index and an out-of-range constant are both malformed, and the
   error cites the source span of the offending instruction. *)
let test_verify_vector_lane () =
  let v4 = Ssa.Vec (Ssa.F32, 4) in
  let build lane () =
    let n = { Ssa.a_index = 0; a_name = "n"; a_ty = Ssa.I32 } in
    let fn, b = Builder.create_function ~name:"bad" ~args:[ n ] in
    let p = Builder.alloca b Ssa.Private v4 1 in
    let v = Builder.load b p (Builder.i32 0) in
    let e = Builder.extract b v (lane (Ssa.Arg n)) in
    (match e with
    | Ssa.Vinstr i -> i.Ssa.iloc <- { Grover_support.Loc.line = 3; col = 7 }
    | _ -> ());
    Builder.store b p (Builder.i32 0) (Builder.insert b v (Builder.i32 1) e);
    Builder.ret b;
    Verify.run fn
  in
  build (fun _ -> Builder.i32 3) ();
  List.iter
    (fun (name, lane) ->
      match build lane () with
      | exception Verify.Invalid_ir m ->
          let suffix = "(from source 3:7)" in
          let ls = String.length m and lx = String.length suffix in
          Alcotest.(check bool)
            (Printf.sprintf "%s: error is located (%s)" name m)
            true
            (ls >= lx && String.sub m (ls - lx) lx = suffix)
      | () -> Alcotest.failf "%s: verifier accepted malformed IR" name)
    [ ("dynamic lane", fun a -> a); ("lane out of range", fun _ -> Builder.i32 4) ]

(* -- dominators ----------------------------------------------------------------- *)

let test_dominators_diamond () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { if (n > 0) a[0] = 1; else a[1] = 2; a[2] = 3; }"
  in
  let dom = Dom.compute fn in
  let entry = Ssa.entry fn in
  List.iter
    (fun b ->
      if Cfg.is_reachable dom.Dom.cfg b then
        Alcotest.(check bool)
          (Printf.sprintf "entry dominates %s" b.Ssa.b_name)
          true
          (Dom.dominates dom entry b))
    fn.Ssa.blocks

let test_dominators_loop_frontier () =
  let fn =
    compile1
      "__kernel void f(__global int *a, int n) { for (int i = 0; i < n; i++) a[i] = i; }"
  in
  let dom = Dom.compute fn in
  (* The loop header must be in the dominance frontier of the loop body. *)
  let has_frontier = Array.exists (fun f -> f <> []) dom.Dom.frontier in
  Alcotest.(check bool) "loop creates a frontier" true has_frontier

(* -- property: random expression programs fold identically ----------------------- *)

(* Generate a random arithmetic expression over x (an int argument), lower
   both as a kernel storing the expression, and check the normalized IR still
   verifies. A cheap fuzz for parser+lowering+passes plumbing. *)
let gen_expr_src =
  let open QCheck.Gen in
  let rec expr depth =
    if depth = 0 then oneof [ map string_of_int (int_range 0 9); return "x" ]
    else
      let* l = expr (depth - 1) in
      let* r = expr (depth - 1) in
      let* op = oneofl [ "+"; "-"; "*" ] in
      return (Printf.sprintf "(%s %s %s)" l op r)
  in
  let* d = int_range 1 4 in
  let* e = expr d in
  return (Printf.sprintf "__kernel void f(__global int *a, int x) { a[0] = %s; }" e)

let prop_random_exprs_normalize =
  QCheck.Test.make ~name:"random expressions lower and normalize" ~count:100
    (QCheck.make ~print:(fun s -> s) gen_expr_src)
    (fun src ->
      let fn = compile1 src in
      Pass.Pipeline.normalize fn;
      Verify.run fn;
      count_op is_store fn = 1)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suite =
  [ ( "lowering",
      [ Alcotest.test_case "verifies" `Quick test_lower_verifies;
        Alcotest.test_case "local alloca" `Quick test_lower_local_alloca;
        Alcotest.test_case "barrier" `Quick test_lower_barrier;
        Alcotest.test_case "if control flow" `Quick test_lower_if_control_flow;
        Alcotest.test_case "loop" `Quick test_lower_loop_verifies;
        Alcotest.test_case "vector ops" `Quick test_lower_vector_ops;
        Alcotest.test_case "type error" `Quick test_lower_type_error;
        Alcotest.test_case "unknown variable" `Quick test_lower_unknown_var ] );
    ( "mem2reg",
      [ Alcotest.test_case "promotes scalars" `Quick test_mem2reg_promotes_scalars;
        Alcotest.test_case "loop phi" `Quick test_mem2reg_loop_phi;
        Alcotest.test_case "if phi" `Quick test_mem2reg_if_phi;
        Alcotest.test_case "invariant has no phi" `Quick test_mem2reg_no_trivial_phi;
        Alcotest.test_case "trivial phi chain" `Quick test_mem2reg_trivial_phi_chain;
        Alcotest.test_case "keeps arrays" `Quick test_mem2reg_keeps_arrays ] );
    ( "simplify-dce",
      [ Alcotest.test_case "constant folding" `Quick test_simplify_constant_folding;
        Alcotest.test_case "identities" `Quick test_simplify_identities;
        Alcotest.test_case "dead branch" `Quick test_simplify_dead_branch;
        Alcotest.test_case "dead code removed" `Quick test_dce_removes_dead_code;
        Alcotest.test_case "stores kept" `Quick test_dce_keeps_stores;
        Alcotest.test_case "write-only local removed" `Quick test_dce_write_only_local ] );
    ( "normal-form",
      [ Alcotest.test_case "index leaves" `Quick test_normalize_index_leaves;
        Alcotest.test_case "printer stability" `Quick test_printer_roundtrip_stability ] );
    ( "verifier-negatives",
      [ Alcotest.test_case "missing terminator" `Quick test_verify_missing_terminator;
        Alcotest.test_case "binop type mismatch" `Quick test_verify_type_mismatch;
        Alcotest.test_case "float op on ints" `Quick test_verify_float_op_on_ints;
        Alcotest.test_case "store type mismatch" `Quick test_verify_store_type_mismatch;
        Alcotest.test_case "cond on non-i1" `Quick test_verify_cond_on_non_i1;
        Alcotest.test_case "use before def" `Quick test_verify_use_before_def;
        Alcotest.test_case "vector lane not an in-range constant" `Quick
          test_verify_vector_lane ] );
    ( "dominators",
      [ Alcotest.test_case "diamond" `Quick test_dominators_diamond;
        Alcotest.test_case "loop frontier" `Quick test_dominators_loop_frontier ] );
    qsuite "ir-props" [ prop_random_exprs_normalize ] ]
