(** Canonicalisation of work-item builtin calls.

    [get_local_id(0)] is a pure, work-item-invariant function: every call
    with the same constant dimension yields the same value. This pass keeps
    a single canonical call per (function, dimension) in the entry block and
    rewrites all duplicates to use it — a tiny value-numbering step that
    guarantees Grover sees one atom per thread-index coordinate. *)

open Grover_ir
open Ssa

let is_workitem_call = function
  | Call { callee; args = [ Cint (_, _) ]; _ } ->
      List.mem callee Grover_clc.Builtins.work_item_functions
  | Call { callee = "get_work_dim"; args = []; _ } -> true
  | _ -> false

let key = function
  | Call { callee; args = [ Cint (_, d) ]; _ } -> (callee, d)
  | Call { callee; _ } -> (callee, -1)
  | _ -> invalid_arg "key"

(* Rewrite get_global_id(d) as get_group_id(d)*get_local_size(d) +
   get_local_id(d). Global-load indexes are then explicit in the work-group
   and local thread indexes — the (w, l) decomposition the paper's S3
   assumes — even for kernels written in terms of global ids. *)
let expand_global_ids (fn : func) : bool =
  let e = entry fn in
  let expansions = ref [] in
  iter_instrs
    (fun i ->
      match i.op with
      | Call { callee = "get_global_id"; args = [ Cint (t, d) ]; _ } ->
          let call name =
            fresh_instr (Call { callee = name; args = [ Cint (t, d) ]; ret = I32 })
          in
          let grp = call "get_group_id" in
          let lsz = call "get_local_size" in
          let lid = call "get_local_id" in
          let mul = fresh_instr (Binop (Mul, Vinstr grp, Vinstr lsz)) in
          let add = fresh_instr (Binop (Add, Vinstr mul, Vinstr lid)) in
          expansions := (i, [ grp; lsz; lid; mul; add ]) :: !expansions
      | _ -> ())
    fn;
  let uses = Hashtbl.create 8 in
  List.iter
    (fun (gid_call, new_instrs) ->
      (* Splice the expansion right after the original call's position in
         the entry block (the call itself is hoisted there by [run]). *)
      List.iter
        (fun ni ->
          ni.parent <- Some e;
          ())
        new_instrs;
      (* Insert in order at the head of the entry block. *)
      e.instrs <- new_instrs @ e.instrs;
      let add = List.nth new_instrs 4 in
      Hashtbl.replace uses gid_call.iid (Vinstr add);
      match gid_call.parent with
      | Some b -> remove_instr b gid_call
      | None -> ())
    !expansions;
  substitute fn uses;
  !expansions <> []

let run (fn : func) : bool =
  let canonical : (string * int, instr) Hashtbl.t = Hashtbl.create 8 in
  let duplicates = ref [] in
  iter_instrs
    (fun i ->
      if is_workitem_call i.op then
        let k = key i.op in
        match Hashtbl.find_opt canonical k with
        | None -> Hashtbl.add canonical k i
        | Some c -> duplicates := (i, c) :: !duplicates)
    fn;
  (* Hoist the canonical calls to the top of the entry block (after other
     hoisted calls) so they dominate every use. *)
  let e = entry fn in
  Hashtbl.iter
    (fun _ c ->
      match c.parent with
      | Some b ->
          remove_instr b c;
          c.parent <- Some e;
          e.instrs <- c :: e.instrs
      | None -> ())
    canonical;
  let uses = Hashtbl.create 8 in
  List.iter
    (fun (dup, c) ->
      Hashtbl.replace uses dup.iid (Vinstr c);
      match dup.parent with
      | Some b -> remove_instr b dup
      | None -> ())
    !duplicates;
  substitute fn uses;
  !duplicates <> []
