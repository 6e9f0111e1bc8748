(* Correctness-subsystem tests: the static race/barrier/bounds passes must
   certify every suite kernel race-free under its true work-group size and
   reject each kernel of the negative corpus with the right finding code;
   the dynamic sanitizer must stay silent on the whole suite (both kernel
   versions, default plan and tree-engine oracle), report exactly the
   pinned findings on a faulty
   kernel, and must not perturb results — sanitized output buffers are
   bit-identical to a plain launch. *)

open Grover_ocl
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit
module Pass = Grover_passes.Pass
module Diag = Grover_support.Diag
module Analysis = Grover_analysis.Analysis

let scale = 4

let codes_of (ds : Diag.t list) : string list =
  List.filter_map (fun d -> d.Diag.code) ds

let analyze_fn ?local_size (fn : Grover_ir.Ssa.func) : Diag.t list =
  let c = Pass.ctx () in
  Analysis.analyze ?local_size c fn;
  Pass.diags c

(* -- Static: the 11 suite kernels are race-free ----------------------------- *)

let test_static_race_free (case : Kit.case) () =
  let fn, _ = H.compile_version case H.With_lm in
  let local = (case.Kit.mk ~scale).Kit.local in
  let ds = analyze_fn ~local_size:local fn in
  let codes = codes_of ds in
  List.iter
    (fun bad ->
      if List.mem bad codes then
        Alcotest.failf "%s: unexpected %s under local size %s" case.Kit.id bad
          (let x, y, z = local in
           Printf.sprintf "%dx%dx%d" x y z))
    [ "GRV-RACE-MUST"; "GRV-RACE-MAY"; "GRV-BARRIER-DIV"; "GRV-OOB-STATIC" ];
  (* Every local buffer must be positively certified, not just un-flagged. *)
  let frees = List.length (List.filter (( = ) "GRV-RACE-FREE") codes) in
  let n_locals =
    Grover_ir.Ssa.fold_instrs
      (fun n i ->
        match i.Grover_ir.Ssa.op with
        | Grover_ir.Ssa.Alloca { aspace = Grover_ir.Ssa.Local; _ } -> n + 1
        | _ -> n)
      0 fn
  in
  Alcotest.(check int) (case.Kit.id ^ " race-free buffers") n_locals frees

(* -- Static: the negative corpus is rejected -------------------------------- *)

let bad_racy_store =
  {|__kernel void racy_store(__global float *out, __global const float *in) {
  __local float acc[16];
  int lx = get_local_id(0);
  acc[0] = in[lx];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[lx] = acc[0];
}|}

let bad_divergent_barrier =
  {|__kernel void divergent_barrier(__global float *out, __global const float *in) {
  __local float tmp[16];
  int lx = get_local_id(0);
  tmp[lx] = in[lx];
  if (lx < 8) {
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  out[lx] = tmp[15 - lx];
}|}

let bad_oob_index =
  {|__kernel void oob_index(__global float *out, __global const float *in) {
  __local float tmp[16];
  int lx = get_local_id(0);
  tmp[lx + 1] = in[lx];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[lx] = tmp[lx];
}|}

let compile_one (src : string) : Grover_ir.Ssa.func =
  match Grover_ir.Lower.compile src with
  | [ fn ] ->
      Grover_passes.Pipeline.normalize fn;
      fn
  | _ -> Alcotest.fail "bad-corpus source must contain exactly one kernel"

let test_bad_kernel (name : string) (src : string) (expected : string) () =
  let fn = compile_one src in
  let ds = analyze_fn ~local_size:(16, 1, 1) fn in
  let codes = codes_of ds in
  if not (List.mem expected codes) then
    Alcotest.failf "%s: expected %s, got [%s]" name expected
      (String.concat "; " codes);
  (* With the true local size supplied the finding must be a hard error. *)
  let errs = List.filter Diag.is_error ds in
  Alcotest.(check bool)
    (name ^ " is an error")
    true
    (List.exists (fun d -> d.Diag.code = Some expected) errs)

(* -- Dynamic: the sanitizer is silent on the whole suite -------------------- *)

(* [fiber] runs on the tree-engine oracle through GROVER_FORCE_PATH:
   [sanitize_run] takes no path. *)
let test_sanitize_clean (case : Kit.case) (v : H.version) ~(fiber : bool) () =
  let run () = H.sanitize_run ~scale case v in
  let r = if fiber then Test_ocl.with_force_path "fiber" run else run () in
  (match r.H.sz_check with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: sanitized run invalid: %s" case.Kit.id m);
  match r.H.sz_findings with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: sanitizer finding: %s" case.Kit.id
        (Sanitize.message f)

(* -- Dynamic: sanitizing must not perturb results --------------------------- *)

let buffers_of (args : Runtime.arg_binding list) : Memory.buffer list =
  List.filter_map (function Runtime.Abuf b -> Some b | _ -> None) args

let storage_bits (b : Memory.buffer) : string =
  (* Compare through Marshal so float payloads (NaNs included) are
     compared bit-for-bit, not through (=) on possibly-boxed floats. *)
  Marshal.to_string (Memory.to_float_array b, Memory.to_int_array b) []

let run_pair (case : Kit.case) (v : H.version) ?force_path () :
    string list * string list =
  let fn, _ = H.compile_version case v in
  let compiled = Interp.prepare fn in
  let mk () =
    let w = case.Kit.mk ~scale in
    ( { Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 },
      w.Kit.args,
      w.Kit.mem )
  in
  let cfg, args, mem = mk () in
  ignore (Runtime.launch compiled ~cfg ~args ~mem ?force_path ());
  let plain = List.map storage_bits (buffers_of args) in
  let cfg2, args2, mem2 = mk () in
  let _totals, findings =
    Runtime.run_sanitized compiled ~cfg:cfg2 ~args:args2 ~mem:mem2 ?force_path ()
  in
  Alcotest.(check int) (case.Kit.id ^ " findings") 0 (List.length findings);
  (plain, List.map storage_bits (buffers_of args2))

let qcheck_bit_identity =
  let cases = Array.of_list Grover_suite.Suite.all in
  let gen =
    QCheck.Gen.(
      triple
        (int_bound (Array.length cases - 1))
        (oneofl [ H.With_lm; H.Without_lm ])
        (oneofl [ None; Some Runtime.Fiber ]))
  in
  let print (i, v, e) =
    Printf.sprintf "%s/%s/%s" cases.(i).Kit.id
      (match v with H.With_lm -> "lm" | H.Without_lm -> "grover")
      (match e with None -> "compiled" | Some _ -> "tree")
  in
  QCheck.Test.make ~name:"sanitized runs are bit-identical to plain runs"
    ~count:16
    (QCheck.make ~print gen)
    (fun (i, v, force_path) ->
      let plain, sanitized = run_pair cases.(i) v ?force_path () in
      plain = sanitized)

(* -- Dynamic: the findings themselves, not only their codes ------------------ *)

(* Three faults in one launch of one 16-wide group: every work-item writes
   acc[0] (a write/write race that dedups to one finding), g is written at
   lx and read at 15 - lx in the same barrier interval (read/write races
   on a global buffer), and after the barrier out[lx + 1] runs one element
   past the end (out-of-bounds, which aborts the launch). *)
let three_faults =
  {|__kernel void three_faults(__global float *out, __global float *g,
                           __global const float *in) {
  __local float acc[16];
  int lx = get_local_id(0);
  acc[0] = in[lx];
  g[lx] = in[lx] * 2.0f;
  out[lx] = g[15 - lx];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[lx + 1] = acc[0];
}|}

(* What a schedule may not change; which work-item pair fires, and the
   order, it may. *)
let verdict_of (f : Sanitize.finding) : string =
  Printf.sprintf "%s %d:%d %s"
    (Sanitize.code_of_kind f.Sanitize.f_kind)
    f.Sanitize.f_loc.Grover_support.Loc.line
    f.Sanitize.f_loc.Grover_support.Loc.col f.Sanitize.f_buffer

let finding_row (f : Sanitize.finding) : string =
  Printf.sprintf "%s idx=%d n=%d group=%d wi=%d,%d" (verdict_of f)
    f.Sanitize.f_index f.Sanitize.f_extent f.Sanitize.f_group f.Sanitize.f_wi1
    f.Sanitize.f_wi2

let sanitize_three_faults (c : Interp.compiled) ~(force_path : Runtime.path) :
    Sanitize.finding list =
  let mem = Memory.create () in
  let buf () = Memory.alloc mem Grover_ir.Ssa.F32 16 in
  let out = buf () and g = buf () and inp = buf () in
  Memory.fill_floats inp (fun i -> float_of_int i);
  snd
    (Runtime.run_sanitized c
       ~cfg:{ Runtime.global = (16, 1, 1); local = (16, 1, 1); queues = 1 }
       ~args:[ Runtime.Abuf out; Runtime.Abuf g; Runtime.Abuf inp ]
       ~mem ~force_path ())

let three_faults_expected =
  [
    "GRV-SAN-WW 5:7 local buffer 'acc' idx=0 n=16 group=0 wi=0,1";
    "GRV-SAN-RW 6:5 global buffer 'g' idx=8 n=16 group=0 wi=7,8";
    "GRV-SAN-RW 7:20 global buffer 'g' idx=7 n=16 group=0 wi=7,8";
    "GRV-SAN-OOB 9:12 global buffer 'out' idx=16 n=16 group=0 wi=15,15";
  ]

let test_findings_pinned () =
  let c = Interp.prepare (compile_one three_faults) in
  Alcotest.(check (list string))
    "tree+fiber findings" three_faults_expected
    (List.map finding_row (sanitize_three_faults c ~force_path:Runtime.Fiber))

(* The group of 16 runs as one lane batch. The fiber scheduler, which
   runs work-item 8's store to g after work-item 7's read of g[8], also
   reports that race at the store (6:5); one batch runs every store
   before any read and reports the races on g at the read only. *)
let test_findings_lane_batch () =
  let c = Interp.prepare (compile_one three_faults) in
  Alcotest.(check (list string)) "one lane batch finds the race on g and the others"
    [ "GRV-SAN-OOB 9:12 global buffer 'out'"; "GRV-SAN-RW 7:20 global buffer 'g'";
      "GRV-SAN-WW 5:7 local buffer 'acc'" ]
    (List.sort_uniq compare
       (List.map verdict_of (sanitize_three_faults c ~force_path:Runtime.Lanes)))

(* 70 store lines, each to its own element of acc, run by two work-items
   in one barrier interval: every line races, and the sanitizer keeps the
   first 64 findings. *)
let test_findings_capped () =
  let lines = 70 in
  let src =
    let b = Buffer.create 4096 in
    Printf.bprintf b
      "__kernel void many(__global float *out) {\n\
      \  __local float acc[%d];\n\
      \  int lx = get_local_id(0);\n"
      lines;
    for k = 0 to lines - 1 do
      Printf.bprintf b "  acc[%d] = (float)(lx + %d);\n" k k
    done;
    Buffer.add_string b
      "  barrier(CLK_LOCAL_MEM_FENCE);\n  out[lx] = acc[lx];\n}\n";
    Buffer.contents b
  in
  let c = Interp.prepare (compile_one src) in
  let mem = Memory.create () in
  let out = Memory.alloc mem Grover_ir.Ssa.F32 2 in
  let _, findings =
    Runtime.run_sanitized c
      ~cfg:{ Runtime.global = (2, 1, 1); local = (2, 1, 1); queues = 1 }
      ~args:[ Runtime.Abuf out ] ~mem ()
  in
  (* The first store is on source line 4. *)
  Alcotest.(check (list (pair string int)))
    "first 64 racy lines, in source order"
    (List.init 64 (fun k -> ("GRV-SAN-WW", 4 + k)))
    (List.map
       (fun (f : Sanitize.finding) ->
         ( Sanitize.code_of_kind f.Sanitize.f_kind,
           f.Sanitize.f_loc.Grover_support.Loc.line ))
       findings)

(* Shadows are per buffer, not per buffer id: an argument buffer from
   another [Memory.t] shares its [bid] with the [__local] buffer the
   launch allocates in [~mem], and must still get its own shadow. *)
let bid_probe =
  {|__kernel void probe(__global float *out) {
  __local float tmp[64];
  int lx = get_local_id(0);
  tmp[lx] = (float)lx;
  barrier(CLK_LOCAL_MEM_FENCE);
  out[lx] = tmp[63 - lx];
}|}

let test_foreign_arg_buffer () =
  let c = Interp.prepare (compile_one bid_probe) in
  let run sanitized =
    let host = Memory.create () in
    let out = Memory.alloc host Grover_ir.Ssa.F32 64 in
    let mem = Memory.create () in
    let cfg = { Runtime.global = (64, 1, 1); local = (64, 1, 1); queues = 1 } in
    let args = [ Runtime.Abuf out ] in
    let findings =
      if sanitized then snd (Runtime.run_sanitized c ~cfg ~args ~mem ())
      else (
        ignore (Runtime.launch c ~cfg ~args ~mem ());
        [])
    in
    (findings, storage_bits out)
  in
  let _, plain = run false in
  let findings, sanitized = run true in
  Alcotest.(check (list string))
    "no findings" []
    (List.map finding_row findings);
  Alcotest.(check bool) "bit-identical to a plain run" true (plain = sanitized)

(* A checked access that fires nothing allocates nothing: the shadow comes
   from the cache and no finding is built. 6144 accesses over three
   buffers, after a first sweep has created their shadows. *)
let test_access_allocates_nothing () =
  let mem = Memory.create () in
  let bufs = Array.init 3 (fun _ -> Memory.alloc mem Grover_ir.Ssa.F32 1024) in
  let s = Sanitize.create () in
  Sanitize.enter_group s ~group:0;
  let loc = Grover_support.Loc.dummy in
  let sweep () =
    for i = 0 to 1023 do
      for k = 0 to 2 do
        let buf = bufs.(k) in
        Sanitize.access s ~buf ~idx:i ~is_write:true ~wi:i ~loc;
        Sanitize.access s ~buf ~idx:i ~is_write:false ~wi:i ~loc
      done
    done
  in
  sweep ();
  let w0 = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. w0 in
  if words > 64.0 then
    Alcotest.failf "6144 sanitized accesses allocated %.0f minor words" words;
  Alcotest.(check int) "no findings" 0 (List.length (Sanitize.findings s))

(* -- No shadow for a buffer no argument writes --------------------------------
   A buffer that no argument of the launch may write
   ([Runtime.compute_arg_modes], decided per buffer) takes part in no
   race, so a sanitized launch gives it no shadow arrays
   ([Runtime.read_only_buids]) and only checks its bounds. A buffer bound
   to a read-only and to a written argument is written, and a store
   through a select or a phi of two pointer arguments may write both. *)

let shadow_cfg = { Runtime.global = (64, 1, 1); local = (64, 1, 1); queues = 1 }

(* A launch under a sanitizer made as [Runtime.run_sanitized] makes it:
   its findings and the words of shadow arrays it allocated. *)
let sanitized_shadows (c : Interp.compiled) ~args ~mem : Sanitize.finding list * int =
  let s = Sanitize.create ~read_only:(Runtime.read_only_buids c.Interp.fn args) () in
  (try ignore (Runtime.launch c ~cfg:shadow_cfg ~args ~mem ~sanitizer:s ())
   with Sanitize.Abort _ -> ());
  (Sanitize.findings s, Sanitize.shadow_words s)

let shadow_bufs k =
  let mem = Memory.create () in
  let bufs =
    Array.init k (fun j ->
        let b = Memory.alloc mem Grover_ir.Ssa.F32 64 in
        Memory.fill_floats b (fun i -> float_of_int ((i * (j + 3)) mod 17));
        b)
  in
  (mem, bufs)

let buids bufs = List.sort compare (List.map (fun (b : Memory.buffer) -> b.Memory.buid) bufs)

let test_read_only_no_shadow () =
  let c =
    Interp.prepare
      (compile_one
         {|__kernel void k(__global float *out, __global const float *in) {
             int l = get_local_id(0);
             out[l] = in[l] * 2.0f;
           }|})
  in
  let mem, b = shadow_bufs 2 in
  let args = [ Runtime.Abuf b.(0); Runtime.Abuf b.(1) ] in
  Alcotest.(check (list int)) "the input is read-only" (buids [ b.(1) ])
    (Runtime.read_only_buids c.Interp.fn args);
  let findings, words = sanitized_shadows c ~args ~mem in
  Alcotest.(check (list string)) "no findings" [] (List.map finding_row findings);
  Alcotest.(check int) "only the output is shadowed" (2 * 64) words;
  let mem, b = shadow_bufs 2 in
  let args = [ Runtime.Abuf b.(0); Runtime.Abuf b.(1) ] in
  ignore (Runtime.run_sanitized c ~cfg:shadow_cfg ~args ~mem ());
  Alcotest.(check (array (float 0.0))) "run_sanitized computes the same output"
    (Array.init 64 (fun i -> 2.0 *. float_of_int ((i * 4) mod 17)))
    (Memory.to_float_array b.(0))

let test_read_only_and_written_buffer () =
  let c =
    Interp.prepare
      (compile_one
         {|__kernel void k(__global float *out, __global const float *in) {
             int l = get_local_id(0);
             out[l] = in[(l + 1) % 64] + 1.0f;
           }|})
  in
  let mem, b = shadow_bufs 1 in
  let args = [ Runtime.Abuf b.(0); Runtime.Abuf b.(0) ] in
  Alcotest.(check (list int)) "a buffer also bound to a written argument is not read-only" []
    (Runtime.read_only_buids c.Interp.fn args);
  let _, findings = Runtime.run_sanitized c ~cfg:shadow_cfg ~args ~mem () in
  Alcotest.(check bool) "its read/write race is reported" true
    (List.exists
       (fun (f : Sanitize.finding) ->
         f.Sanitize.f_kind = Sanitize.Read_write && f.Sanitize.f_buffer = "global buffer 'out'")
       findings);
  let mem, b = shadow_bufs 2 in
  let _, findings =
    Runtime.run_sanitized c ~cfg:shadow_cfg ~args:[ Runtime.Abuf b.(0); Runtime.Abuf b.(1) ] ~mem ()
  in
  Alcotest.(check (list string)) "two buffers: no race" [] (List.map finding_row findings)

let test_pointer_select_phi_shadows () =
  let varying =
    Interp.prepare
      (compile_one
         {|__kernel void k(__global float *a, __global float *b, __global const float *c) {
             int l = get_local_id(0);
             __global float *p = b;
             if (l & 1) p = a;
             p[l] = c[l] + a[(l + 1) % 64] + b[(l + 1) % 64];
           }|})
  and uniform =
    Interp.prepare
      (compile_one
         {|__kernel void k(__global float *a, __global float *b, __global const float *c, int s) {
             int l = get_local_id(0);
             __global float *p = a;
             if (s > 0) p = b;
             p[l] = c[l];
           }|})
  in
  (* No source form lowers to a pointer select: [p = (l & 1) ? a : b;
     p[l] = c[l]] built directly. *)
  let select =
    let open Grover_ir in
    let ptr k name = { Ssa.a_index = k; a_name = name; a_ty = Ssa.Ptr (Ssa.Global, Ssa.F32) } in
    let fn, b = Builder.create_function ~name:"k" ~args:[ ptr 0 "a"; ptr 1 "b"; ptr 2 "c" ] in
    let arg k = Ssa.Arg (List.nth fn.Ssa.f_args k) in
    let l = Builder.call b "get_local_id" [ Builder.i32 0 ] Ssa.I32 in
    let odd = Builder.icmp b Ssa.Ine (Builder.binop b Ssa.And l (Builder.i32 1)) (Builder.i32 0) in
    let p = Builder.select b odd (arg 0) (arg 1) in
    Builder.store b p l (Builder.load b (arg 2) l);
    Builder.ret b;
    Verify.run fn;
    Interp.prepare fn
  in
  let mem, bufs = shadow_bufs 3 in
  let args = [ Runtime.Abuf bufs.(0); Runtime.Abuf bufs.(1); Runtime.Abuf bufs.(2) ] in
  Alcotest.(check (list int)) "select: only c is read-only" (buids [ bufs.(2) ])
    (Runtime.read_only_buids select.Interp.fn args);
  Alcotest.(check int) "select: a and b are shadowed" (2 * 2 * 64)
    (snd (sanitized_shadows select ~args ~mem));
  let mem, bufs = shadow_bufs 3 in
  let args = [ Runtime.Abuf bufs.(0); Runtime.Abuf bufs.(1); Runtime.Abuf bufs.(2) ] in
  Alcotest.(check (list int)) "varying choice: only c is read-only" (buids [ bufs.(2) ])
    (Runtime.read_only_buids varying.Interp.fn args);
  Alcotest.(check (list int)) "uniform choice: only c is read-only" (buids [ bufs.(2) ])
    (Runtime.read_only_buids uniform.Interp.fn (args @ [ Runtime.Aint 1 ]));
  let findings, words = sanitized_shadows varying ~args ~mem in
  Alcotest.(check int) "varying choice: a and b are shadowed" (2 * 2 * 64) words;
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "varying choice: the race on %s is reported" name) true
        (List.exists
           (fun (f : Sanitize.finding) -> f.Sanitize.f_buffer = "global buffer '" ^ name ^ "'")
           findings))
    [ "a"; "b" ]

(* The source-level twin of the select above: [?:] over two pointers of
   one type lowers to a pointer select, runs as the tree engine runs it,
   and both arms count as written. Arms of different pointer types are a
   located error. *)
let test_source_pointer_select () =
  let fn =
    compile_one
      {|__kernel void k(__global float *a, __global float *b, __global const float *c) {
          int l = get_local_id(0);
          __global float *p = (l & 1) ? a : b;
          p[l] = c[l];
        }|}
  in
  let selects = ref 0 in
  Grover_ir.Ssa.iter_instrs
    (fun i ->
      match i.Grover_ir.Ssa.op with
      | Grover_ir.Ssa.Select (_, v, _) -> (
          match Grover_ir.Ssa.type_of v with Grover_ir.Ssa.Ptr _ -> incr selects | _ -> ())
      | _ -> ())
    fn;
  Alcotest.(check int) "one pointer select" 1 !selects;
  Alcotest.(check (array (pair bool bool)))
    "a and b written, c read" [| (false, true); (false, true); (true, false) |]
    (Runtime.compute_arg_modes fn);
  let c = Interp.prepare fn in
  let run force_path =
    let mem, bufs = shadow_bufs 3 in
    let args = [ Runtime.Abuf bufs.(0); Runtime.Abuf bufs.(1); Runtime.Abuf bufs.(2) ] in
    ignore (Runtime.launch c ~cfg:shadow_cfg ~args ~mem ?force_path ());
    Array.map Memory.to_float_array bufs
  in
  let lanes = run None and tree = run (Some Runtime.Fiber) in
  Alcotest.(check (array (array (float 0.0)))) "default plan = tree+fiber" tree lanes;
  let input = Array.init 64 (fun i -> float_of_int ((i * 5) mod 17)) in
  Alcotest.(check (array (float 0.0))) "odd lanes store through a"
    (Array.init 64 (fun i -> if i land 1 = 1 then input.(i) else float_of_int ((i * 3) mod 17)))
    lanes.(0);
  Alcotest.(check (array (float 0.0))) "even lanes store through b"
    (Array.init 64 (fun i -> if i land 1 = 0 then input.(i) else float_of_int ((i * 4) mod 17)))
    lanes.(1);
  let mem, bufs = shadow_bufs 3 in
  let args = [ Runtime.Abuf bufs.(0); Runtime.Abuf bufs.(1); Runtime.Abuf bufs.(2) ] in
  Alcotest.(check int) "a and b are shadowed" (2 * 2 * 64) (snd (sanitized_shadows c ~args ~mem));
  match
    Grover_ir.Lower.compile
      {|__kernel void k(__global float *a, __local float *b) {
          int l = get_local_id(0);
          __global float *p = (l & 1) ? a : b;
          p[l] = 1.0f;
        }|}
  with
  | _ -> Alcotest.fail "a __global and a __local arm compiled"
  | exception Grover_support.Loc.Error (l, m) ->
      Alcotest.(check (triple int int string))
        "located error naming both types"
        (3, 32, "the arms of ?: have different types __global float* and __local float*")
        (l.Grover_support.Loc.line, l.Grover_support.Loc.col, m)

(* A shadow stamp keeps the epoch above bit 32, so the epoch counter must
   stop with a message before it would overflow the stamp. *)
let test_epoch_limit () =
  let s = Sanitize.create () in
  s.Sanitize.epoch <- Sanitize.max_epoch - 2;
  Sanitize.barrier_round s;
  match Sanitize.enter_group s ~group:1 with
  | () -> Alcotest.fail "the epoch counter passed its limit"
  | exception Failure _ -> ()

let suite =
  let static =
    List.map
      (fun case ->
        Alcotest.test_case (case.Kit.id ^ " race-free") `Quick
          (test_static_race_free case))
      Grover_suite.Suite.all
    @ [
        Alcotest.test_case "bad: racy store" `Quick
          (test_bad_kernel "racy_store" bad_racy_store "GRV-RACE-MUST");
        Alcotest.test_case "bad: divergent barrier" `Quick
          (test_bad_kernel "divergent_barrier" bad_divergent_barrier
             "GRV-BARRIER-DIV");
        Alcotest.test_case "bad: oob index" `Quick
          (test_bad_kernel "oob_index" bad_oob_index "GRV-OOB-STATIC");
      ]
  in
  let dynamic =
    List.concat_map
      (fun case ->
        List.concat_map
          (fun (vn, v) ->
            List.map
              (fun (en, fiber) ->
                Alcotest.test_case
                  (Printf.sprintf "%s %s/%s clean" case.Kit.id vn en)
                  `Quick
                  (test_sanitize_clean case v ~fiber))
              [ ("compiled", false); ("tree", true) ])
          [ ("lm", H.With_lm); ("grover", H.Without_lm) ])
      Grover_suite.Suite.all
  in
  [
    ("analysis-static", static);
    ( "analysis-sanitize",
      dynamic
      @ [
          Alcotest.test_case "three faults: pinned findings" `Quick
            test_findings_pinned;
          Alcotest.test_case "three faults: verdicts of one lane batch"
            `Quick test_findings_lane_batch;
          Alcotest.test_case "findings capped at 64, in source order" `Quick
            test_findings_capped;
          Alcotest.test_case "argument buffer from another Memory.t" `Quick
            test_foreign_arg_buffer;
          Alcotest.test_case "epoch counter stops at its limit" `Quick
            test_epoch_limit;
          Alcotest.test_case "a checked access allocates nothing" `Quick
            test_access_allocates_nothing;
          Alcotest.test_case "a read-only argument gets no shadow" `Quick
            test_read_only_no_shadow;
          Alcotest.test_case "a buffer bound read-only and written reports its race" `Quick
            test_read_only_and_written_buffer;
          Alcotest.test_case "a store through a select or phi keeps both shadows" `Quick
            test_pointer_select_phi_shadows;
          Alcotest.test_case "?: over two pointers of one type" `Quick
            test_source_pointer_select;
        ] );
    ( "analysis-props",
      [ QCheck_alcotest.to_alcotest qcheck_bit_identity ] );
  ]
