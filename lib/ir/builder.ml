(** Instruction-builder with an insertion cursor, in the style of LLVM's
    IRBuilder. All [add_*] helpers append at the end of the current block
    and return the instruction's value. *)

open Ssa
module Loc = Grover_support.Loc

type t = { fn : func; mutable cur : block; mutable loc : Loc.t }

let create_function ~name ~args : func * t =
  let entry = fresh_block "entry" in
  let fn = { f_name = name; f_args = args; blocks = [ entry ] } in
  (fn, { fn; cur = entry; loc = Loc.dummy })

let current (b : t) : block = b.cur
let set_block (b : t) (blk : block) : unit = b.cur <- blk

(** Source span stamped onto every instruction built from here on; the
    lowering sets it as it walks the AST so pass diagnostics and verifier
    failures can cite the original OpenCL C construct. *)
let set_loc (b : t) (loc : Loc.t) : unit = b.loc <- loc

let new_block (b : t) (name : string) : block =
  let blk = fresh_block name in
  b.fn.blocks <- b.fn.blocks @ [ blk ];
  blk

let add (b : t) (op : opcode) : value =
  let i = fresh_instr ~loc:b.loc op in
  append_instr b.cur i;
  Vinstr i

let add_unit (b : t) (op : opcode) : unit = ignore (add b op)

let terminate (b : t) (op : opcode) : unit =
  match b.cur.term with
  | Some _ -> invalid_arg "terminate: block already terminated"
  | None -> set_term b.cur (fresh_instr ~loc:b.loc op)

let is_terminated (b : t) : bool = b.cur.term <> None

(* -- Convenience constructors ------------------------------------------- *)

let i32 n = Cint (I32, n)
let i1 b = Cint (I1, if b then 1 else 0)
let f32 f = Cfloat f

let binop b op x y = add b (Binop (op, x, y))
let icmp b c x y = add b (Icmp (c, x, y))
let fcmp b c x y = add b (Fcmp (c, x, y))
let select b c x y = add b (Select (c, x, y))
let cast b k v t = add b (Cast (k, v, t))
let call b callee args ret = add b (Call { callee; args; ret })
let alloca ?dims ?(name = "") b aspace elem count =
  let dims = match dims with Some d -> d | None -> [ count ] in
  add b (Alloca { aspace; elem; count; dims; aname = name })
let load b ptr index = add b (Load { ptr; index })
let store b ptr index v = add_unit b (Store { ptr; index; v })
let extract b v lane = add b (Extract (v, lane))
let insert b v lane s = add b (Insert (v, lane, s))
let vecbuild b t vs = add b (Vecbuild (t, vs))
let barrier b ~blocal ~bglobal = add_unit b (Barrier { blocal; bglobal })

let add_incoming (v : value) ~(from : block) (inc : value) : unit =
  match v with
  | Vinstr ({ op = Phi p; _ } as _i) -> p.incoming <- p.incoming @ [ (from, inc) ]
  | _ -> invalid_arg "add_incoming: not a phi"

let br b target = terminate b (Br target)
let cond_br b c t e = terminate b (Cond_br (c, t, e))
let ret b = terminate b Ret
