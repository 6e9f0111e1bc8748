(* Pass-manager tests: the registry-driven default pipeline must be
   bit-identical to the historical hard-wired pass sequence on every suite
   kernel (same IR, same Grover outcome), normalize must be idempotent
   (qcheck), and the manager plumbing itself — registry, parsing,
   combinators, stats, diagnostics, --verify-each — must behave. *)

open Grover_ir
module Pass = Grover_passes.Pass
module Pipeline = Grover_passes.Pipeline
module P = Grover_passes
module Diag = Grover_support.Diag
module Loc = Grover_support.Loc
module Suite = Grover_suite.Suite
module Kit = Grover_suite.Kit
module Grover = Grover_core.Grover

(* -- helpers ---------------------------------------------------------------- *)

let compile_kernel ?(defines = []) (kernel : string) (src : string) : Ssa.func =
  let fns = Lower.compile ~defines src in
  match List.find_opt (fun f -> f.Ssa.f_name = kernel) fns with
  | Some f -> f
  | None -> Alcotest.failf "kernel %s missing after compile" kernel

let compile1 src =
  match Lower.compile src with
  | [ fn ] -> fn
  | fns -> Alcotest.failf "expected 1 kernel, got %d" (List.length fns)

let simple_src =
  "__kernel void f(__global int *a, int x) { a[0] = x * 2 + 1; }"

let contains ~(needle : string) (hay : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  nn = 0
  || (let found = ref false in
      for i = 0 to nh - nn do
        if (not !found) && String.sub hay i nn = needle then found := true
      done;
      !found)

(* The printer emits raw global value ids (%v<N>) and block ids (name.<N>),
   so two separate compiles of the same source differ textually even when
   structurally identical. Renumber both token kinds by order of first
   appearance to get a compile-independent canonical form. *)
let canonical_ir (s : string) : string =
  let b = Buffer.create (String.length s) in
  let vmap : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let bmap : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let vnext = ref 0 and bnext = ref 0 in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if
      c = '%' && !i + 2 < n && s.[!i + 1] = 'v' && is_digit s.[!i + 2]
    then begin
      let j = ref (!i + 2) in
      while !j < n && is_digit s.[!j] do incr j done;
      let id = String.sub s (!i + 2) (!j - !i - 2) in
      let canon =
        match Hashtbl.find_opt vmap id with
        | Some k -> k
        | None ->
            let k = !vnext in
            incr vnext;
            Hashtbl.add vmap id k;
            k
      in
      Buffer.add_string b (Printf.sprintf "%%v#%d" canon);
      i := !j
    end
    else if c = '.' && !i + 1 < n && is_digit s.[!i + 1] then begin
      let j = ref (!i + 1) in
      while !j < n && is_digit s.[!j] do incr j done;
      (* Only rewrite tokens that look like block ids ("header.12:",
         "%body.7,"), not hex-float fractions ("0x1.8p+1"). *)
      let terminated =
        !j >= n
        || match s.[!j] with
           | ':' | ' ' | '\n' | ',' | ')' | ']' -> true
           | _ -> false
      in
      if terminated then begin
        let id = String.sub s (!i + 1) (!j - !i - 1) in
        let canon =
          match Hashtbl.find_opt bmap id with
          | Some k -> k
          | None ->
              let k = !bnext in
              incr bnext;
              Hashtbl.add bmap id k;
              k
        in
        Buffer.add_string b (Printf.sprintf ".#%d" canon);
        i := !j
      end
      else begin
        Buffer.add_char b c;
        incr i
      end
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  Buffer.contents b

let canon_print fn = canonical_ir (Printer.func_to_string fn)

(* -- the string-keyed CSE (verbatim reference) ------------------------------ *)

(* [Cse.run] as it was before its keys became structural and its use
   rewriting one sweep: an opcode keyed by a printed string, and every
   merge rewriting every use in the function on the spot. The passes must
   reproduce its output bit for bit. *)
module Old_cse = struct
  open Ssa

  let replace_uses (fn : func) ~(target : value) ~(by : value) : unit =
    let subst v = if value_equal v target then by else v in
    List.iter
      (fun b -> List.iter (fun i -> i.op <- map_operands ~f:subst i.op) (all_instrs b))
      fn.blocks

  let is_pure = P.Cse.is_pure

  let value_key (v : value) : string =
    match v with
    | Cint (t, n) ->
        Printf.sprintf "i%d:%d"
          (match t with I1 -> 1 | I8 -> 8 | I16 -> 16 | I32 -> 32 | I64 -> 64 | _ -> 0)
          n
    | Cfloat f -> Printf.sprintf "f:%h" f
    | Arg a -> Printf.sprintf "a:%d" a.a_index
    | Vinstr i -> Printf.sprintf "v:%010d" i.iid

  let opcode_key (op : opcode) : string option =
    if not (is_pure op) then None
    else
      let operands_part = String.concat "," (List.map value_key (operands op)) in
      let tag =
        match op with
        | Binop (b, _, _) -> "bin:" ^ Printer.binop_name b
        | Icmp (c, _, _) -> "icmp:" ^ Printer.icmp_name c
        | Fcmp (c, _, _) -> "fcmp:" ^ Printer.fcmp_name c
        | Select _ -> "select"
        | Cast (k, _, t) ->
            Printf.sprintf "cast:%s:%s" (Printer.cast_name k)
              (Format.asprintf "%a" Printer.pp_ty t)
        | Extract _ -> "extract"
        | Insert _ -> "insert"
        | Vecbuild (t, _) -> "vecbuild:" ^ Format.asprintf "%a" Printer.pp_ty t
        | Call { callee; ret; _ } ->
            Printf.sprintf "call:%s:%s" callee (Format.asprintf "%a" Printer.pp_ty ret)
        | _ -> assert false
      in
      Some (tag ^ "(" ^ operands_part ^ ")")

  let canonical_op (op : opcode) : opcode =
    match op with
    | Binop (((Add | Mul | And | Or | Xor | Fadd | Fmul) as b), x, y) ->
        let kx = value_key x and ky = value_key y in
        if String.compare kx ky <= 0 then op else Binop (b, y, x)
    | Icmp (Ieq, x, y) | Icmp (Ine, x, y) ->
        let kx = value_key x and ky = value_key y in
        if String.compare kx ky <= 0 then op
        else (match op with Icmp (c, _, _) -> Icmp (c, y, x) | _ -> op)
    | _ -> op

  let run (fn : func) : bool =
    let dom = Dom.compute fn in
    let cfg = dom.Dom.cfg in
    let changed = ref false in
    let table : (string, instr) Hashtbl.t = Hashtbl.create 64 in
    let rec walk (bi : int) : unit =
      let blk = cfg.Cfg.order.(bi) in
      let added = ref [] in
      let kills = ref [] in
      List.iter
        (fun i ->
          i.op <- canonical_op i.op;
          match opcode_key i.op with
          | None -> ()
          | Some key -> (
              match Hashtbl.find_opt table key with
              | Some earlier ->
                  replace_uses fn ~target:(Vinstr i) ~by:(Vinstr earlier);
                  kills := (blk, i) :: !kills;
                  changed := true
              | None ->
                  Hashtbl.add table key i;
                  added := key :: !added))
        blk.instrs;
      List.iter (fun (b, i) -> remove_instr b i) !kills;
      List.iter walk dom.Dom.children.(bi);
      List.iter (fun key -> Hashtbl.remove table key) !added
    in
    walk 0;
    !changed
end

(* -- the old hard-wired sequence (verbatim replica) ------------------------- *)

(* What Pipeline.normalize was before the pass manager existed, with the
   string-keyed CSE. The new registry pipeline must reproduce it bit for
   bit. *)
let old_fix_loop (fn : Ssa.func) : unit =
  let continue_ = ref true in
  while !continue_ do
    let s = P.Simplify.run fn in
    let c = Old_cse.run fn in
    let d = P.Dce.run fn in
    continue_ := s || c || d
  done

let old_fixpoint (fn : Ssa.func) : unit =
  old_fix_loop fn;
  if P.Licm.run fn then old_fix_loop fn

let old_normalize (fn : Ssa.func) : unit =
  ignore (P.Canon.run fn);
  ignore (P.Canon.expand_global_ids fn);
  ignore (P.Canon.run fn);
  ignore (P.Mem2reg.run fn);
  old_fixpoint fn;
  Verify.run fn

(* [Grover.run] as it was when it cleaned up twice: the old sequence's
   cleanup, barrier removal, the same cleanup again. *)
let old_grover ?only (fn : Ssa.func) : Grover.outcome =
  let module C = Grover_core in
  C.Atom.assign_phi_names fn;
  let selected name = match only with None -> true | Some ns -> List.mem name ns in
  let plans, rejected =
    List.fold_left
      (fun (plans, rejected) -> function
        | Error r ->
            if selected r.C.Access.rej_name then
              (plans, rejected @ [ (r.C.Access.rej_name, r.C.Access.reason) ])
            else (plans, rejected)
        | Ok cand when not (selected cand.C.Access.cand_name) -> (plans, rejected)
        | Ok cand -> (
            match C.Rewrite.analyse fn cand with
            | Ok plan -> (plans @ [ plan ], rejected)
            | Error e ->
                (plans, rejected @ [ (e.C.Rewrite.err_candidate, e.C.Rewrite.err_reason) ])))
      ([], []) (C.Access.candidates fn)
  in
  if plans = [] then
    { Grover.transformed = []; rejected; reports = []; barriers_removed = 0 }
  else begin
    let applied = List.map (fun plan -> (plan, C.Rewrite.apply fn plan)) plans in
    let cleanup () = old_fixpoint fn; Verify.run fn in
    cleanup ();
    let barriers_removed = C.Rewrite.remove_local_barriers fn in
    cleanup ();
    { Grover.transformed =
        List.map (fun (p, _) -> p.C.Rewrite.cand.C.Access.cand_name) applied;
      rejected;
      reports =
        List.map
          (fun (plan, ngls) ->
            C.Report.of_plan ~kernel:fn.Ssa.f_name ~barriers_removed plan ~ngls)
          applied;
      barriers_removed }
  end

(* -- equivalence: new registry pipeline vs the old sequence ----------------- *)

let check_outcomes_equal id (a : Grover.outcome) (b : Grover.outcome) =
  Alcotest.(check (list string))
    (id ^ " transformed") a.Grover.transformed b.Grover.transformed;
  Alcotest.(check (list (pair string string)))
    (id ^ " rejected") a.Grover.rejected b.Grover.rejected;
  Alcotest.(check int)
    (id ^ " barriers removed") a.Grover.barriers_removed
    b.Grover.barriers_removed;
  Alcotest.(check int)
    (id ^ " report count")
    (List.length a.Grover.reports)
    (List.length b.Grover.reports)

(* Both sequences on two lowerings of one kernel: the normalized IR, the
   Grover outcome and the transformed IR must be identical. *)
let check_equivalent id ?only (fn_old : Ssa.func) (fn_new : Ssa.func) =
  old_normalize fn_old;
  Pipeline.normalize fn_new;
  Alcotest.(check string)
    (id ^ " normalized IR identical")
    (canon_print fn_old) (canon_print fn_new);
  let o_old = old_grover ?only fn_old in
  let o_new = Grover.run ?only fn_new in
  check_outcomes_equal id o_old o_new;
  Alcotest.(check (list string))
    (id ^ " reports identical")
    (List.map Grover_core.Report.to_string o_old.Grover.reports)
    (List.map Grover_core.Report.to_string o_new.Grover.reports);
  Alcotest.(check string)
    (id ^ " transformed IR identical")
    (canon_print fn_old) (canon_print fn_new)

let test_equivalence (case : Kit.case) () =
  let lower () =
    compile_kernel ~defines:case.Kit.defines case.Kit.kernel case.Kit.source
  in
  check_equivalent case.Kit.id ?only:case.Kit.remove (lower ()) (lower ())

let test_equivalence_example (file, src) () =
  List.iter2
    (fun fn_old fn_new -> check_equivalent (file ^ ":" ^ fn_old.Ssa.f_name) fn_old fn_new)
    (Lower.compile src) (Lower.compile src)

(* -- idempotence: a second normalize reports no change ---------------------- *)

let second_normalize_changes (fn : Ssa.func) : bool =
  Pipeline.normalize fn;
  let c = Pass.ctx () in
  Pass.run_pass c Pipeline.normalize_pass fn

let test_normalize_idempotent_suite (case : Kit.case) () =
  let fn =
    compile_kernel ~defines:case.Kit.defines case.Kit.kernel case.Kit.source
  in
  Alcotest.(check bool)
    (case.Kit.id ^ " second normalize is a no-op")
    false
    (second_normalize_changes fn)

(* Random kernels: straight-line expressions, a diamond and a loop, so the
   property also covers phi placement and LICM. *)
let gen_kernel_src =
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
  oneofl
    [ Printf.sprintf "__kernel void f(__global int *a, int x) { a[0] = %s; }" e;
      Printf.sprintf
        "__kernel void f(__global int *a, int x) { if (x > 0) { a[0] = %s; } \
         else { a[0] = 0; } }"
        e;
      Printf.sprintf
        "__kernel void f(__global int *a, int x) { for (int i = 0; i < 8; \
         i++) { a[i] = %s + i; } }"
        e ]

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent on random kernels" ~count:100
    (QCheck.make ~print:(fun s -> s) gen_kernel_src)
    (fun src ->
      let fn = compile1 src in
      not (second_normalize_changes fn))

let prop_equivalence_random =
  QCheck.Test.make ~name:"old and new sequences agree on random kernels" ~count:100
    (QCheck.make ~print:(fun s -> s) gen_kernel_src)
    (fun src ->
      check_equivalent "random" (compile1 src) (compile1 src);
      true)

(* -- registry and pipeline parsing ------------------------------------------ *)

let test_registry () =
  List.iter
    (fun n ->
      match Pass.find n with
      | Some p -> Alcotest.(check string) ("name of " ^ n) n (Pass.name p)
      | None -> Alcotest.failf "pass '%s' not registered" n)
    [ "canon"; "expand-gids"; "mem2reg"; "simplify"; "cse"; "dce"; "licm";
      "verify"; "simplify-fix"; "normalize"; "cleanup" ];
  Alcotest.(check bool) "unknown absent" true (Pass.find "nope" = None)

let test_parse_ok () =
  match Pass.parse "canon, mem2reg ,dce" with
  | Ok ps ->
      Alcotest.(check (list string))
        "parsed names"
        [ "canon"; "mem2reg"; "dce" ]
        (List.map Pass.name ps)
  | Error d -> Alcotest.fail (Diag.to_string d)

let test_parse_unknown () =
  match Pass.parse "canon,bogus" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error d ->
      Alcotest.(check bool) "is error" true (Diag.is_error d);
      let m = Diag.to_string d in
      Alcotest.(check bool)
        "mentions the pass" true
        (contains ~needle:"bogus" m)

let test_parse_empty () =
  match Pass.parse " , " with
  | Ok _ -> Alcotest.fail "expected parse error on empty spec"
  | Error d -> Alcotest.(check bool) "is error" true (Diag.is_error d)

(* -- combinators ------------------------------------------------------------ *)

let test_seq_order () =
  let trace = ref [] in
  let mk n = Pass.make n ~descr:"test" (fun _ _ -> trace := n :: !trace; false) in
  let s = Pass.seq "s" [ mk "a"; mk "b"; mk "c" ] in
  let fn = compile1 simple_src in
  let c = Pass.ctx () in
  let changed = Pass.run_pass c s fn in
  Alcotest.(check bool) "seq of no-ops unchanged" false changed;
  Alcotest.(check (list string)) "runs in order" [ "a"; "b"; "c" ]
    (List.rev !trace)

let test_fixpoint_stabilises () =
  let left = ref 3 in
  let p =
    Pass.make "count" ~descr:"test" (fun _ _ ->
        if !left > 0 then begin decr left; true end else false)
  in
  let fp = Pass.fixpoint "count-fix" [ p ] in
  let fn = compile1 simple_src in
  let c = Pass.ctx () in
  let changed = Pass.run_pass c fp fn in
  Alcotest.(check bool) "fixpoint reports change" true changed;
  (* 3 changing rounds + 1 stable round, plus the fixpoint's own stat. *)
  let runs = List.filter (fun s -> s.Pass.st_pass = "count") (Pass.stats c) in
  Alcotest.(check int) "member ran until stable" 4 (List.length runs);
  Alcotest.(check int) "changed rounds" 3
    (List.length (List.filter (fun s -> s.Pass.st_changed) runs))

let test_until_stable () =
  let left = ref 2 in
  let p =
    Pass.make "tick" ~descr:"test" (fun _ _ ->
        if !left > 0 then begin decr left; true end else false)
  in
  let fn = compile1 simple_src in
  let c = Pass.ctx () in
  Alcotest.(check bool) "changed" true
    (Pass.run_pass c (Pass.until_stable p) fn);
  Alcotest.(check int) "drained" 0 !left

(* -- instrumentation -------------------------------------------------------- *)

let test_stats_recorded () =
  let fn = compile1 simple_src in
  let c = Pass.ctx () in
  Pipeline.normalize ~ctx:c fn;
  let stats = Pass.stats c in
  Alcotest.(check bool) "stats recorded" true (stats <> []);
  List.iter
    (fun s ->
      if s.Pass.st_seconds < 0.0 then
        Alcotest.failf "%s: negative time" s.Pass.st_pass;
      if s.Pass.st_before < 0 || s.Pass.st_after < 0 then
        Alcotest.failf "%s: negative instr count" s.Pass.st_pass)
    stats;
  Alcotest.(check bool) "normalize composite recorded" true
    (List.exists (fun s -> s.Pass.st_pass = "normalize") stats);
  (* The composite's after-count is the function's final instruction count. *)
  let top = List.find (fun s -> s.Pass.st_pass = "normalize") stats in
  Alcotest.(check int) "composite after = final count"
    (Pass.instr_count fn) top.Pass.st_after;
  (* The summary aggregates every run exactly once. *)
  let total_runs =
    List.fold_left (fun n s -> n + s.Pass.sm_runs) 0 (Pass.summarize c)
  in
  Alcotest.(check int) "summary covers all runs" (List.length stats) total_runs;
  let table = Pass.timing_table c in
  Alcotest.(check bool) "table has header" true
    (String.length table > 4 && String.sub table 0 4 = "pass")

let test_print_changed () =
  let fn = compile1 simple_src in
  let out = Buffer.create 256 in
  let c = Pass.ctx ~print_changed:true ~print:(Buffer.add_string out) () in
  Pipeline.normalize ~ctx:c fn;
  let s = Buffer.contents out in
  Alcotest.(check bool) "snapshots printed" true (String.length s > 0);
  Alcotest.(check bool) "mentions a pass" true
    (contains ~needle:"; IR after" s)

(* -- verify-each and failure conversion ------------------------------------- *)

let break_ir =
  Pass.make "break-ir" ~descr:"deliberately corrupt the IR (test only)"
    (fun _ fn ->
      (List.hd fn.Ssa.blocks).Ssa.term <- None;
      true)

let test_verify_each_catches () =
  let fn = compile1 simple_src in
  Pipeline.normalize fn;
  let c = Pass.ctx ~verify_each:true () in
  (match Pass.run_pass c break_ir fn with
  | _ -> Alcotest.fail "expected Diag.Fatal from --verify-each"
  | exception Diag.Fatal d ->
      Alcotest.(check bool) "fatal is error" true (Diag.is_error d));
  match Pass.errors c with
  | [] -> Alcotest.fail "error diagnostic not recorded on the context"
  | d :: _ ->
      Alcotest.(check bool) "names the pass" true
        (d.Diag.pass = Some "break-ir")

let test_verify_each_off_is_lenient () =
  (* Without --verify-each the manager does not re-check, mirroring the
     production default; the corruption only surfaces at the next Verify. *)
  let fn = compile1 simple_src in
  Pipeline.normalize fn;
  let c = Pass.ctx () in
  Alcotest.(check bool) "runs fine" true (Pass.run_pass c break_ir fn);
  Alcotest.(check bool) "no error diag" true (Pass.errors c = [])

(* -- diagnostics ------------------------------------------------------------ *)

let test_diag_to_string () =
  let d =
    Diag.errorf ~loc:{ Loc.line = 3; col = 7 } ~pass:"lower"
      "unknown variable x"
  in
  Alcotest.(check string) "located error"
    "k.cl:3:7: error: [lower] unknown variable x"
    (Diag.to_string ~file:"k.cl" d);
  Alcotest.(check string) "fileless error" "3:7: error: [lower] unknown variable x"
    (Diag.to_string d);
  let r = Diag.remarkf ~pass:"grover" "kept 'As'" in
  Alcotest.(check string) "unlocated remark" "remark: [grover] kept 'As'"
    (Diag.to_string r)

let test_diag_to_json () =
  let d =
    Diag.errorf ~loc:{ Loc.line = 2; col = 5 } ~pass:"sema" "bad \"quote\""
  in
  let j = Diag.to_json ~file:"a.cl" d in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (contains ~needle j))
    [ "\"severity\": \"error\""; "\"file\": \"a.cl\""; "\"line\": 2";
      "\"col\": 5"; "\"pass\": \"sema\""; "\\\"quote\\\"" ]

let test_grover_remarks () =
  (* Running Grover under a ctx surfaces Table-III outcomes as remarks. *)
  let case = List.hd Suite.all in
  let fn =
    compile_kernel ~defines:case.Kit.defines case.Kit.kernel case.Kit.source
  in
  let c = Pass.ctx () in
  Pipeline.normalize ~ctx:c fn;
  let o = Grover.run ?only:case.Kit.remove ~ctx:c fn in
  Alcotest.(check bool) "transformed something" true (o.Grover.transformed <> []);
  let remarks =
    List.filter (fun d -> d.Diag.severity = Diag.Remark) (Pass.diags c)
  in
  Alcotest.(check bool) "remarks emitted" true (remarks <> []);
  Alcotest.(check bool) "remark names grover" true
    (List.for_all (fun d -> d.Diag.pass = Some "grover") remarks)

(* -- suite ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ ( "pass-manager equivalence",
      List.map
        (fun case ->
          Alcotest.test_case case.Kit.id `Quick (test_equivalence case))
        Suite.all
      @ List.map
          (fun ((f, _) as ex) -> Alcotest.test_case f `Quick (test_equivalence_example ex))
          (Test_cache.example_sources ())
      @ qsuite [ prop_equivalence_random ] );
    ( "pass-manager idempotence",
      List.map
        (fun case ->
          Alcotest.test_case case.Kit.id `Quick
            (test_normalize_idempotent_suite case))
        Suite.all
      @ qsuite [ prop_normalize_idempotent ] );
    ( "pass-manager registry",
      [ Alcotest.test_case "base passes registered" `Quick test_registry;
        Alcotest.test_case "parse pipeline" `Quick test_parse_ok;
        Alcotest.test_case "parse unknown pass" `Quick test_parse_unknown;
        Alcotest.test_case "parse empty spec" `Quick test_parse_empty ] );
    ( "pass-manager combinators",
      [ Alcotest.test_case "seq order" `Quick test_seq_order;
        Alcotest.test_case "fixpoint stabilises" `Quick test_fixpoint_stabilises;
        Alcotest.test_case "until_stable" `Quick test_until_stable ] );
    ( "pass-manager instrumentation",
      [ Alcotest.test_case "stats recorded" `Quick test_stats_recorded;
        Alcotest.test_case "print changed" `Quick test_print_changed;
        Alcotest.test_case "verify-each catches corruption" `Quick
          test_verify_each_catches;
        Alcotest.test_case "verify-each off is lenient" `Quick
          test_verify_each_off_is_lenient ] );
    ( "diagnostics",
      [ Alcotest.test_case "to_string" `Quick test_diag_to_string;
        Alcotest.test_case "to_json" `Quick test_diag_to_json;
        Alcotest.test_case "grover remarks" `Quick test_grover_remarks ] ) ]
