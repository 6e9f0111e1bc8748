(** The SSA intermediate representation.

    A deliberately LLVM/SPIR-shaped IR: typed SSA values, basic blocks with
    explicit terminators, phi nodes, address-space-qualified memory
    operations. Two simplifications keep the Grover analysis close to the
    paper's presentation:

    - memory operations are [base-pointer + element-index] pairs (a GEP
      folded into the access), so the index expression tree of paper §IV-B
      is literally the def-use chain of the [index] operand;
    - pointers are typed ([Ptr (space, elem)]), so loads know their width
      without a separate type table.

    Instructions are mutable records: transformation passes rewrite
    [op] fields in place and splice instruction lists, as in LLVM. *)

type space = Global | Local | Constant | Private

type ty =
  | Void
  | I1
  | I8
  | I16
  | I32
  | I64
  | F32
  | Vec of ty * int  (** element type is always a scalar *)
  | Ptr of space * ty

type binop =
  | Add | Sub | Mul | Sdiv | Udiv | Srem | Urem
  | Shl | Ashr | Lshr | And | Or | Xor
  | Fadd | Fsub | Fmul | Fdiv | Frem

type icmp = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge
type fcmp = Foeq | Fone | Folt | Fole | Fogt | Foge

type cast_kind =
  | Sext
  | Zext
  | Trunc
  | Si_to_fp
  | Ui_to_fp
  | Fp_to_si
  | Bitcast

type value =
  | Cint of ty * int  (** integer constant of the given integer type *)
  | Cfloat of float
  | Arg of arg
  | Vinstr of instr

and arg = { a_index : int; a_name : string; a_ty : ty }

and instr = {
  iid : int;  (** unique within a process; dense enough for arrays *)
  mutable op : opcode;
  mutable parent : block option;
  mutable iloc : Grover_support.Loc.t;
      (** source span of the construct this instruction was lowered from;
          [Loc.dummy] for synthesised instructions *)
}

and opcode =
  | Binop of binop * value * value
  | Icmp of icmp * value * value
  | Fcmp of fcmp * value * value
  | Select of value * value * value
  | Cast of cast_kind * value * ty
  | Call of { callee : string; args : value list; ret : ty }
  | Alloca of {
      aspace : space;
      elem : ty;
      count : int;  (** total number of elements *)
      dims : int list;  (** declared array shape, e.g. [16; 16]; product = count *)
      aname : string;  (** source variable name, for reports and selection *)
    }
  | Load of { ptr : value; index : value }
  | Store of { ptr : value; index : value; v : value }
  | Extract of value * value  (** vector, lane *)
  | Insert of value * value * value  (** vector, lane, scalar *)
  | Vecbuild of ty * value list
  | Phi of phi
  | Br of block
  | Cond_br of value * block * block
  | Ret
  | Barrier of { blocal : bool; bglobal : bool }

and phi = { mutable incoming : (block * value) list; p_ty : ty }

and block = {
  bid : int;
  mutable b_name : string;
  mutable instrs : instr list;  (** body, excluding the terminator *)
  mutable term : instr option;  (** always [Some] in a complete function *)
}

and func = {
  f_name : string;
  f_args : arg list;
  mutable blocks : block list;  (** head is the entry block *)
}

(* -- Identity ------------------------------------------------------------ *)

(* Atomic so that independent kernels can be compiled concurrently (the
   compile cache dispatches batch compiles over the runtime's domain pool);
   ids only need to be unique within one function, but the global counters
   must never hand the same id to two domains. *)
let instr_counter = Atomic.make 0
let block_counter = Atomic.make 0

let fresh_instr ?(loc = Grover_support.Loc.dummy) op =
  { iid = Atomic.fetch_and_add instr_counter 1 + 1; op; parent = None;
    iloc = loc }

let fresh_block name =
  { bid = Atomic.fetch_and_add block_counter 1 + 1; b_name = name; instrs = [];
    term = None }

(** Ensure the global counters are past [n], so instructions created later
    cannot collide with ids already present in a function loaded from a
    serialized artifact. *)
let reserve_ids (n : int) : unit =
  let rec bump (c : int Atomic.t) =
    let cur = Atomic.get c in
    if cur < n && not (Atomic.compare_and_set c cur n) then bump c
  in
  bump instr_counter;
  bump block_counter

let value_equal (a : value) (b : value) =
  match (a, b) with
  | Vinstr i, Vinstr j -> i.iid = j.iid
  | Arg x, Arg y -> x.a_index = y.a_index && x.a_name = y.a_name
  | Cint (t1, n1), Cint (t2, n2) -> t1 = t2 && n1 = n2
  | Cfloat f1, Cfloat f2 -> Float.equal f1 f2
  | _ -> false

(* -- Type utilities ------------------------------------------------------ *)

let rec ty_is_integer = function
  | I1 | I8 | I16 | I32 | I64 -> true
  | Vec (t, _) -> ty_is_integer t
  | _ -> false

let rec ty_is_float = function
  | F32 -> true
  | Vec (t, _) -> ty_is_float t
  | _ -> false

let ty_bits = function
  | I1 -> 1
  | I8 -> 8
  | I16 -> 16
  | I32 | F32 -> 32
  | I64 -> 64
  | Void | Vec _ | Ptr _ -> invalid_arg "ty_bits: not a scalar"

let rec ty_size_bytes = function
  | Void -> 0
  | I1 | I8 -> 1
  | I16 -> 2
  | I32 | F32 -> 4
  | I64 -> 8
  | Vec (t, n) ->
      let n = if n = 3 then 4 else n in
      ty_size_bytes t * n
  | Ptr _ -> 8

let elem_of_ptr = function
  | Ptr (_, t) -> t
  | _ -> invalid_arg "elem_of_ptr: not a pointer"

let space_of_ptr = function
  | Ptr (sp, _) -> sp
  | _ -> invalid_arg "space_of_ptr: not a pointer"

let binop_is_float = function
  | Fadd | Fsub | Fmul | Fdiv | Frem -> true
  | _ -> false

(* -- Value typing -------------------------------------------------------- *)

let rec type_of (v : value) : ty =
  match v with
  | Cint (t, _) -> t
  | Cfloat _ -> F32
  | Arg a -> a.a_ty
  | Vinstr i -> type_of_opcode i.op

and type_of_opcode = function
  | Binop (_, a, _) -> type_of a
  | Icmp _ -> I1
  | Fcmp _ -> I1
  | Select (_, a, _) -> type_of a
  | Cast (_, _, t) -> t
  | Call { ret; _ } -> ret
  | Alloca { aspace; elem; _ } -> Ptr (aspace, elem)
  | Load { ptr; _ } -> elem_of_ptr (type_of ptr)
  | Store _ -> Void
  | Extract (v, _) -> (
      match type_of v with
      | Vec (t, _) -> t
      | _ -> invalid_arg "extract from non-vector")
  | Insert (v, _, _) -> type_of v
  | Vecbuild (t, _) -> t
  | Phi { p_ty; _ } -> p_ty
  | Br _ | Cond_br _ | Ret | Barrier _ -> Void

(* -- Traversal ----------------------------------------------------------- *)

let operands (op : opcode) : value list =
  match op with
  | Binop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) -> [ a; b ]
  | Select (a, b, c) -> [ a; b; c ]
  | Cast (_, v, _) -> [ v ]
  | Call { args; _ } -> args
  | Alloca _ -> []
  | Load { ptr; index } -> [ ptr; index ]
  | Store { ptr; index; v } -> [ ptr; index; v ]
  | Extract (a, b) -> [ a; b ]
  | Insert (a, b, c) -> [ a; b; c ]
  | Vecbuild (_, vs) -> vs
  | Phi { incoming; _ } -> List.map snd incoming
  | Cond_br (c, _, _) -> [ c ]
  | Br _ | Ret | Barrier _ -> []

let map_operands ~(f : value -> value) (op : opcode) : opcode =
  match op with
  | Binop (b, x, y) -> Binop (b, f x, f y)
  | Icmp (c, x, y) -> Icmp (c, f x, f y)
  | Fcmp (c, x, y) -> Fcmp (c, f x, f y)
  | Select (a, b, c) -> Select (f a, f b, f c)
  | Cast (k, v, t) -> Cast (k, f v, t)
  | Call c -> Call { c with args = List.map f c.args }
  | Alloca _ -> op
  | Load { ptr; index } -> Load { ptr = f ptr; index = f index }
  | Store { ptr; index; v } -> Store { ptr = f ptr; index = f index; v = f v }
  | Extract (a, b) -> Extract (f a, f b)
  | Insert (a, b, c) -> Insert (f a, f b, f c)
  | Vecbuild (t, vs) -> Vecbuild (t, List.map f vs)
  | Phi p ->
      p.incoming <- List.map (fun (blk, v) -> (blk, f v)) p.incoming;
      Phi p
  | Cond_br (c, t, e) -> Cond_br (f c, t, e)
  | Br _ | Ret | Barrier _ -> op

(** Whether [f] holds for some operand of [op]; {!operands} without the
    list. *)
let exists_operand (f : value -> bool) (op : opcode) : bool =
  match op with
  | Binop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) | Extract (a, b) ->
      f a || f b
  | Select (a, b, c) | Insert (a, b, c) -> f a || f b || f c
  | Cast (_, v, _) | Cond_br (v, _, _) -> f v
  | Call { args = vs; _ } | Vecbuild (_, vs) -> List.exists f vs
  | Load { ptr; index } -> f ptr || f index
  | Store { ptr; index; v } -> f ptr || f index || f v
  | Phi { incoming; _ } -> List.exists (fun (_, v) -> f v) incoming
  | Alloca _ | Br _ | Ret | Barrier _ -> false

let all_instrs (b : block) : instr list =
  match b.term with Some t -> b.instrs @ [ t ] | None -> b.instrs

(* Body then terminator, both read before [f] runs, as [all_instrs] would
   have read them, without copying the body. *)
let iter_instrs (f : instr -> unit) (fn : func) : unit =
  List.iter
    (fun b ->
      let body = b.instrs and term = b.term in
      List.iter f body;
      Option.iter f term)
    fn.blocks

let fold_instrs (f : 'acc -> instr -> 'acc) (acc : 'acc) (fn : func) : 'acc =
  List.fold_left
    (fun acc b ->
      let body = b.instrs and term = b.term in
      let acc = List.fold_left f acc body in
      match term with Some t -> f acc t | None -> acc)
    acc fn.blocks

(** Rewrite, in one sweep over the function, every use of each instruction
    whose iid is bound in [tbl] as the value it is bound to, following
    chains ([i -> Vinstr j] with [j -> v] makes uses of [i] read [v]).
    Phi incoming values and branch conditions included; only opcodes that
    mention a bound instruction are rebuilt. The bindings must not form a
    cycle. *)
let substitute (fn : func) (tbl : (int, value) Hashtbl.t) : unit =
  if Hashtbl.length tbl > 0 then begin
    let bound = function Vinstr i -> Hashtbl.mem tbl i.iid | _ -> false in
    let rec resolve v =
      match v with
      | Vinstr i -> (
          match Hashtbl.find_opt tbl i.iid with Some v' -> resolve v' | None -> v)
      | _ -> v
    in
    iter_instrs
      (fun i ->
        if exists_operand bound i.op then i.op <- map_operands ~f:resolve i.op)
      fn
  end

(** Rewrite every use of the instruction [target] as [by] across the whole
    function, including phi incoming values and branch conditions.
    @raise Invalid_argument if [target] is not an instruction. *)
let replace_uses (fn : func) ~(target : value) ~(by : value) : unit =
  match target with
  | Vinstr i ->
      if not (value_equal target by) then begin
        let tbl = Hashtbl.create 1 in
        Hashtbl.replace tbl i.iid by;
        substitute fn tbl
      end
  | _ -> invalid_arg "replace_uses: target is not an instruction"

let successors (b : block) : block list =
  match b.term with
  | Some { op = Br t; _ } -> [ t ]
  | Some { op = Cond_br (_, t, e); _ } -> [ t; e ]
  | _ -> []

let predecessors (fn : func) (b : block) : block list =
  List.filter (fun p -> List.exists (fun s -> s.bid = b.bid) (successors p)) fn.blocks

(* -- Structural edits ---------------------------------------------------- *)

let append_instr (b : block) (i : instr) : unit =
  i.parent <- Some b;
  b.instrs <- b.instrs @ [ i ]

let set_term (b : block) (i : instr) : unit =
  i.parent <- Some b;
  b.term <- Some i

(** Insert [i] immediately before [before] in its block.
    @raise Not_found if [before] is not in block [b]'s body. *)
let insert_before (b : block) ~(before : instr) (i : instr) : unit =
  if Option.fold ~none:false ~some:(fun t -> t.iid = before.iid) b.term then begin
    i.parent <- Some b;
    b.instrs <- b.instrs @ [ i ]
  end
  else begin
    let rec go = function
      | [] -> raise Not_found
      | x :: rest when x.iid = before.iid -> i :: x :: rest
      | x :: rest -> x :: go rest
    in
    i.parent <- Some b;
    b.instrs <- go b.instrs
  end

let remove_instr (b : block) (i : instr) : unit =
  b.instrs <- List.filter (fun x -> x.iid <> i.iid) b.instrs

let entry (fn : func) : block =
  match fn.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "entry: function has no blocks"

(* -- Canonical renumbering ------------------------------------------------ *)

(** Deep-copy [fn] with dense, order-derived ids: blocks are numbered 1..b
    in list order, instructions 1..n in (block, body, terminator) order.
    Two structurally identical functions — e.g. two compiles of the same
    source in one process, whose global counters handed out different ids —
    renumber to {e bit-identical} values, which is what makes compile
    artifacts content-addressable and their serialized form deterministic.
    The input function is left untouched. *)
let renumber_func (fn : func) : func =
  let imap : (int, instr) Hashtbl.t = Hashtbl.create 64 in
  let bmap : (int, block) Hashtbl.t = Hashtbl.create 16 in
  let next_i = ref 0 and next_b = ref 0 in
  (* Pass 1: allocate shells so forward references resolve. *)
  let blocks =
    List.map
      (fun (b : block) ->
        incr next_b;
        let nb = { bid = !next_b; b_name = b.b_name; instrs = []; term = None } in
        Hashtbl.replace bmap b.bid nb;
        nb)
      fn.blocks
  in
  List.iter
    (fun (b : block) ->
      List.iter
        (fun (i : instr) ->
          incr next_i;
          Hashtbl.replace imap i.iid
            { iid = !next_i; op = i.op; parent = None; iloc = i.iloc })
        (all_instrs b))
    fn.blocks;
  (* Pass 2: rewrite operands, blocks and parents to the new records. *)
  let mv (v : value) : value =
    match v with Vinstr i -> Vinstr (Hashtbl.find imap i.iid) | _ -> v
  in
  let mb (b : block) : block = Hashtbl.find bmap b.bid in
  let mop (op : opcode) : opcode =
    match op with
    | Phi { incoming; p_ty } ->
        (* A fresh phi record: [map_operands] mutates phis in place, which
           would corrupt the input function. *)
        Phi { incoming = List.map (fun (b, v) -> (mb b, mv v)) incoming; p_ty }
    | Br b -> Br (mb b)
    | Cond_br (c, t, e) -> Cond_br (mv c, mb t, mb e)
    | Alloca _ | Ret | Barrier _ -> op
    | _ -> map_operands ~f:mv op
  in
  List.iter2
    (fun (ob : block) (nb : block) ->
      nb.instrs <-
        List.map
          (fun (i : instr) ->
            let ni = Hashtbl.find imap i.iid in
            ni.op <- mop i.op;
            ni.parent <- Some nb;
            ni)
          ob.instrs;
      nb.term <-
        Option.map
          (fun (t : instr) ->
            let nt = Hashtbl.find imap t.iid in
            nt.op <- mop t.op;
            nt.parent <- Some nb;
            nt)
          ob.term)
    fn.blocks blocks;
  { f_name = fn.f_name; f_args = fn.f_args; blocks }
