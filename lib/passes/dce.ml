(** Dead-code elimination.

    Removes every instruction whose value no store, barrier or terminator
    needs, directly or through other values, then allocas whose remaining
    uses are only stores (dead stores first, then the alloca).
    This is the pass that performs Grover's "remove the redundant
    instructions" step after local loads are re-routed to global memory. *)

open Grover_ir
open Ssa

let has_side_effect (i : instr) : bool =
  match i.op with
  | Store _ | Barrier _ | Br _ | Cond_br _ | Ret -> true
  | Call _ -> false (* all supported builtins are pure; barrier is an opcode *)
  | _ -> false

(* Mark every value that a side-effecting instruction or a terminator
   reaches through operands, then delete every unmarked instruction. A
   value whose only users are dead goes with them, a cycle of phis with no
   other user (mem2reg's loop-carried copy of a variable declared inside
   a loop) included, which a use count keeps forever. *)
let remove_unused (fn : func) : bool =
  let live : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let work = Stack.create () in
  let mark (i : instr) =
    if not (Hashtbl.mem live i.iid) then begin
      Hashtbl.replace live i.iid ();
      Stack.push i work
    end
  in
  iter_instrs (fun i -> if has_side_effect i then mark i) fn;
  while not (Stack.is_empty work) do
    List.iter
      (function Vinstr j -> mark j | _ -> ())
      (operands (Stack.pop work).op)
  done;
  let changed = ref false in
  List.iter
    (fun b ->
      let before = List.length b.instrs in
      b.instrs <- List.filter (fun i -> Hashtbl.mem live i.iid) b.instrs;
      if List.length b.instrs <> before then changed := true)
    fn.blocks;
  !changed

(* An alloca whose loads are all gone: delete its stores, then itself. *)
let remove_write_only_allocas (fn : func) : bool =
  let allocas =
    fold_instrs
      (fun acc i -> match i.op with Alloca _ -> i :: acc | _ -> acc)
      [] fn
  in
  let changed = ref false in
  List.iter
    (fun a ->
      let read_or_escapes = ref false in
      iter_instrs
        (fun i ->
          match i.op with
          | Store { ptr = Vinstr p; index; v } when p.iid = a.iid ->
              (* The index and stored value are ordinary uses only if they
                 mention the alloca itself. *)
              List.iter
                (fun o ->
                  match o with
                  | Vinstr j when j.iid = a.iid -> read_or_escapes := true
                  | _ -> ())
                [ index; v ]
          | _ ->
              if
                List.exists
                  (fun o -> match o with Vinstr j -> j.iid = a.iid | _ -> false)
                  (operands i.op)
              then read_or_escapes := true)
        fn;
      if not !read_or_escapes then begin
        List.iter
          (fun b ->
            let before = List.length b.instrs in
            b.instrs <-
              List.filter
                (fun i ->
                  match i.op with
                  | Store { ptr = Vinstr p; _ } when p.iid = a.iid -> false
                  | Alloca _ when i.iid = a.iid -> false
                  | _ -> true)
                b.instrs;
            if List.length b.instrs <> before then changed := true)
          fn.blocks
      end)
    allocas;
  !changed

let run (fn : func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    if remove_unused fn then continue_ := true;
    if remove_write_only_allocas fn then continue_ := true;
    if !continue_ then changed := true
  done;
  !changed
