(** Common-subexpression elimination (dominator-scoped value numbering).

    Pure instructions with identical opcodes and operands are merged when
    one dominates the other. Run before Grover so that equivalent index
    subexpressions share one SSA value, and after it so that the duplicated
    nGL index chain re-uses what the kernel already computes. *)

open Grover_ir
open Ssa

(* All supported builtins are pure functions of their arguments (barrier is
   an opcode, not a call). *)
let is_pure (op : opcode) : bool =
  match op with
  | Binop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Extract _ | Insert _
  | Vecbuild _ | Call _ ->
      true
  | Alloca _ | Load _ | Store _ | Phi _ | Br _ | Cond_br _ | Ret | Barrier _ ->
      false

let int_width = function
  | I1 -> 1 | I8 -> 8 | I16 -> 16 | I32 -> 32 | I64 -> 64 | _ -> 0

(* The identity of an operand. [%h] printed every NaN of one sign as the
   same string, so every NaN of one sign is one key; the two zeros stay
   apart. *)
type operand =
  | Oinstr of int  (** iid *)
  | Oarg of int  (** argument index *)
  | Oint of int * int  (** width, value *)
  | Ofloat of int64  (** bits *)

let operand_key (v : value) : operand =
  match v with
  | Vinstr i -> Oinstr i.iid
  | Arg a -> Oarg a.a_index
  | Cint (t, n) -> Oint (int_width t, n)
  | Cfloat f ->
      Ofloat
        (Int64.bits_of_float
           (if Float.is_nan f then Float.copy_sign Float.nan f else f))

(** A structural key for a pure opcode: tag, type, callee and operand
    identities. Two opcodes get equal keys exactly when the string keys
    of earlier versions ([tag(operands)]) were equal. *)
type key =
  | Kbin of binop * operand * operand
  | Kicmp of icmp * operand * operand
  | Kfcmp of fcmp * operand * operand
  | Kselect of operand * operand * operand
  | Kcast of cast_kind * ty * operand
  | Kextract of operand * operand
  | Kinsert of operand * operand * operand
  | Kvecbuild of ty * operand list
  | Kcall of string * ty * operand list

let opcode_key (op : opcode) : key option =
  let k = operand_key in
  match op with
  | Binop (b, x, y) -> Some (Kbin (b, k x, k y))
  | Icmp (c, x, y) -> Some (Kicmp (c, k x, k y))
  | Fcmp (c, x, y) -> Some (Kfcmp (c, k x, k y))
  | Select (c, x, y) -> Some (Kselect (k c, k x, k y))
  | Cast (kind, v, t) -> Some (Kcast (kind, t, k v))
  | Extract (v, l) -> Some (Kextract (k v, k l))
  | Insert (v, l, s) -> Some (Kinsert (k v, k l, k s))
  | Vecbuild (t, vs) -> Some (Kvecbuild (t, List.map k vs))
  | Call { callee; args; ret } -> Some (Kcall (callee, ret, List.map k args))
  | Alloca _ | Load _ | Store _ | Phi _ | Br _ | Cond_br _ | Ret | Barrier _ ->
      None

(* The text an operand was keyed by before keys were structural. Its order
   still decides which way round a commutative operation's operands are
   stored, and so the bytes of every compiled artifact. *)
let value_key (v : value) : string =
  match v with
  | Cint (t, n) -> Printf.sprintf "i%d:%d" (int_width t) n
  | Cfloat f -> Printf.sprintf "f:%h" f
  | Arg a -> Printf.sprintf "a:%d" a.a_index
  | Vinstr i -> Printf.sprintf "v:%010d" i.iid

(* [String.compare] on the two [value_key]s, without printing in the
   common cases: kinds order [a < f < i < v], and the fixed-width ids of
   two instructions (below 10^10) order as numbers. Two arguments or two
   constants compare their text, so ["a:10"] stays before ["a:9"]. *)
let compare_values (x : value) (y : value) : int =
  let rank = function Arg _ -> 0 | Cfloat _ -> 1 | Cint _ -> 2 | Vinstr _ -> 3 in
  match (x, y) with
  | Vinstr i, Vinstr j -> Int.compare i.iid j.iid
  | _ ->
      let c = Int.compare (rank x) (rank y) in
      if c <> 0 then c else String.compare (value_key x) (value_key y)

(* Commutative operations get a canonical operand order in the key. *)
let canonical_op (op : opcode) : opcode =
  match op with
  | Binop (((Add | Mul | And | Or | Xor | Fadd | Fmul) as b), x, y) ->
      if compare_values x y <= 0 then op else Binop (b, y, x)
  | Icmp (((Ieq | Ine) as c), x, y) ->
      if compare_values x y <= 0 then op else Icmp (c, y, x)
  | _ -> op

let run (fn : func) : bool =
  let dom = Dom.compute fn in
  let cfg = dom.Dom.cfg in
  (* Merged instruction -> the earlier one it duplicates. Each visited
     instruction reads through it before it is keyed, so a chain of
     duplicates merges in one run; one sweep at the end rewrites the rest
     (phis, terminators, unreachable blocks). *)
  let merged : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let is_merged = function Vinstr j -> Hashtbl.mem merged j.iid | _ -> false in
  let through = function
    | Vinstr j as v -> Option.value ~default:v (Hashtbl.find_opt merged j.iid)
    | v -> v
  in
  (* Scoped value table over the dominator tree: entries added in a block
     are removed when its subtree is done. *)
  let table : (key, instr) Hashtbl.t = Hashtbl.create 64 in
  let rec walk (bi : int) : unit =
    let blk = cfg.Cfg.order.(bi) in
    let added = ref [] in
    let killed = ref false in
    List.iter
      (fun i ->
        if exists_operand is_merged i.op then
          i.op <- map_operands ~f:through i.op;
        i.op <- canonical_op i.op;
        match opcode_key i.op with
        | None -> ()
        | Some key -> (
            match Hashtbl.find_opt table key with
            | Some earlier ->
                Hashtbl.replace merged i.iid (Vinstr earlier);
                killed := true
            | None ->
                Hashtbl.add table key i;
                added := key :: !added))
      blk.instrs;
    if !killed then
      blk.instrs <- List.filter (fun i -> not (Hashtbl.mem merged i.iid)) blk.instrs;
    List.iter walk dom.Dom.children.(bi);
    List.iter (fun key -> Hashtbl.remove table key) !added
  in
  walk 0;
  substitute fn merged;
  Hashtbl.length merged > 0
