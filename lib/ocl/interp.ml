(** The work-item interpreter.

    Executes one kernel instance per work-item over the SSA IR, in one of
    two engines:

    - {b Compiled} (the default): {!prepare} translates every basic block,
      once per kernel, into an array of OCaml closures that advance a
      batch of consecutive work-items over struct-of-arrays lane slots.
      Operand slots, argument indices, branch targets, builtin dispatch
      and phi moves are all resolved at compile time — the hot loop does
      no [Hashtbl] lookups and no [op] pattern matching, and [int]/[float]
      results (vectors one slot per component) live unboxed in typed slot
      arrays. The kernel is cut into barrier-delimited {e regions}
      ({!Grover_ir.Regions}); the runtime sweeps each region over the
      group in batches of W lanes, or of one lane where the region needs
      per-work-item control flow, spilling the SSA values that cross a
      region boundary into per-work-item context arrays. One batch of one
      lane is exactly one work-item, so the same code serves both.
    - {b Tree}: the original tree-walking reference engine, kept as the
      oracle for the differential test suite (and selectable with
      [GROVER_ENGINE=tree]). Each work-item runs as an OCaml 5 fiber;
      hitting a barrier performs [Barrier_hit], the group scheduler parks
      the continuation and resumes every work-item of the group once all
      of them have arrived. Kernels whose barriers do not form regions
      (divergent barriers) run here on either engine.

    Memory accesses stream into the group's {!Trace.wg_stats} for the
    performance simulator either way, in the same per-work-item order. *)

open Grover_ir
open Ssa

type rv =
  | RInt of int
  | RFloat of float
  | RVecF of float array
  | RVecI of int array
  | RBuf of Memory.buffer

exception Kernel_trap of string

let trap fmt = Printf.ksprintf (fun m -> raise (Kernel_trap m)) fmt

type engine = Compiled | Tree

let engine_name = function Compiled -> "compiled" | Tree -> "tree"

let default_engine () =
  match Sys.getenv_opt "GROVER_ENGINE" with
  | Some ("tree" | "Tree" | "TREE") -> Tree
  | None | Some ("" | "closure" | "compiled") -> Compiled
  | Some s ->
      Grover_support.Diag.warn_env "GROVER_ENGINE"
        "unknown GROVER_ENGINE %S (expected tree or compiled); using the \
         compiled engine"
        s;
      Compiled

(* -- Work-item context ------------------------------------------------------- *)

type wi_ctx = {
  lid : int array;  (** 3 entries; rewritten in place between work-items *)
  gid : int array;
  grp : int array;  (** shared with the group runner, rewritten per group *)
  lsz : int array;
  gsz : int array;
  ngr : int array;
  mutable flat_lid : int;  (** linear id within the group, for traces *)
}

type _ Effect.t += Barrier_hit : unit Effect.t

(* -- Scalar helpers ----------------------------------------------------------- *)

let as_int = function
  | RInt n -> n
  | RFloat f -> trap "expected int, got float %g" f
  | _ -> trap "expected int, got aggregate"

let as_float = function
  | RFloat f -> f
  | RInt n -> trap "expected float, got int %d" n
  | _ -> trap "expected float, got aggregate"

let as_buf = function RBuf b -> b | _ -> trap "expected a pointer"

let mask_of = function
  | I1 -> 1
  | I8 -> 0xff
  | I16 -> 0xffff
  | I32 -> 0xffffffff
  | _ -> -1

let sext_of t n =
  match t with
  | I1 -> n land 1 (* i1 is canonically 0/1, matching icmp results *)
  | I8 ->
      let n = n land 0xff in
      if n >= 0x80 then n - 0x100 else n
  | I16 ->
      let n = n land 0xffff in
      if n >= 0x8000 then n - 0x10000 else n
  | I32 ->
      let n = n land 0xffffffff in
      if n >= 0x80000000 then n - 0x100000000 else n
  | _ -> n

(* Binop/cmp implementations resolved once per instruction at compile time. *)

let int_binop_fn t op : int -> int -> int =
  let m = mask_of t in
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Sdiv -> fun a b -> if b = 0 then trap "division by zero" else a / b
  | Udiv ->
      fun a b -> if b = 0 then trap "division by zero" else (a land m) / (b land m)
  | Srem -> fun a b -> if b = 0 then trap "remainder by zero" else a mod b
  | Urem ->
      fun a b ->
        if b = 0 then trap "remainder by zero" else (a land m) mod (b land m)
  | Shl -> fun a b -> a lsl (b land 63)
  | Ashr -> fun a b -> a asr (b land 63)
  | Lshr -> fun a b -> (a land m) lsr (b land 63)
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | _ -> fun _ _ -> trap "float binop on ints"

let float_binop_fn op : float -> float -> float =
  match op with
  | Fadd -> ( +. )
  | Fsub -> ( -. )
  | Fmul -> ( *. )
  | Fdiv -> ( /. )
  | Frem -> Float.rem
  | _ -> fun _ _ -> trap "int binop on floats"

let int_binop t op a b = int_binop_fn t op a b
let float_binop op a b = float_binop_fn op a b

let icmp_fn t c : int -> int -> bool =
  let m = mask_of t in
  match c with
  | Ieq -> ( = )
  | Ine -> ( <> )
  | Islt -> ( < )
  | Isle -> ( <= )
  | Isgt -> ( > )
  | Isge -> ( >= )
  | Iult -> fun a b -> a land m < b land m
  | Iule -> fun a b -> a land m <= b land m
  | Iugt -> fun a b -> a land m > b land m
  | Iuge -> fun a b -> a land m >= b land m

let fcmp_fn c : float -> float -> bool =
  match c with
  | Foeq -> ( = )
  | Fone -> ( <> )
  | Folt -> ( < )
  | Fole -> ( <= )
  | Fogt -> ( > )
  | Foge -> ( >= )

let icmp_op t c a b = icmp_fn t c a b
let fcmp_op c a b = fcmp_fn c a b

let lanes_map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

(* -- Builtin math ---------------------------------------------------------- *)

let special_fns =
  [ "sqrt"; "native_sqrt"; "rsqrt"; "native_rsqrt"; "exp"; "native_exp";
    "log"; "native_log"; "sin"; "native_sin"; "cos"; "native_cos"; "pow";
    "hypot"; "native_divide" ]

let math1_fn name : (float -> float) option =
  match name with
  | "sqrt" | "native_sqrt" -> Some Float.sqrt
  | "rsqrt" | "native_rsqrt" -> Some (fun x -> 1.0 /. Float.sqrt x)
  | "fabs" -> Some Float.abs
  | "exp" | "native_exp" -> Some Float.exp
  | "log" | "native_log" -> Some Float.log
  | "sin" | "native_sin" -> Some Float.sin
  | "cos" | "native_cos" -> Some Float.cos
  | "floor" -> Some Float.floor
  | "ceil" -> Some Float.ceil
  | _ -> None

let math1 name x =
  match math1_fn name with
  | Some f -> f x
  | None -> trap "unknown unary math builtin %s" name

let math2_fn name : (float -> float -> float) option =
  match name with
  | "fmax" -> Some Float.max
  | "fmin" -> Some Float.min
  | "pow" -> Some Float.pow
  | "fmod" -> Some Float.rem
  | "hypot" -> Some Float.hypot
  | "native_divide" -> Some ( /. )
  | _ -> None

let math2 name a b =
  match math2_fn name with
  | Some f -> f a b
  | None -> trap "unknown binary math builtin %s" name

(* -- State and compiled form -------------------------------------------------

   The compiled form assigns each value-producing instruction slots in a
   typed environment: integers in [lienv], floats in [lfenv] (both
   unboxed; a vector takes one slot per component), pointers in [lbenv].
   Phi moves ride on CFG edges with evaluate-all-then-commit semantics,
   staged through scratch arrays. *)

(** Lane-batched execution state: one state executes a batch of up to
    [lw] consecutive work-items per closure invocation over
    struct-of-arrays slots. Every value-producing instruction keeps its
    scalar slot number [s]; the lane environments store slot [s] in the
    columns [s*lw .. s*lw+lw-1]. A value the uniformity analysis proved
    group-uniform is computed once per batch and lives in column 0 of its
    slot ([s*lw]); varying values occupy one column per lane. [nl] < [lw]
    in a one-lane region's batches and in the peeled tail batch of a group
    whose size is not a multiple of the lane width. *)
type lane_state = {
  lw : int;  (** compiled lane width W *)
  mutable nl : int;  (** active lanes in the current batch *)
  mutable base_flat : int;  (** flat work-item id of lane 0 *)
  lienv : int array;  (** [n_int] slots x [lw] lanes *)
  lfenv : float array;
  lbenv : rv array;
  (* Phi-move staging, split by uniformity: uniform moves stage one value,
     varying moves stage [lw] columns per move. *)
  luiscr : int array;
  lufscr : float array;
  lubscr : rv array;
  lviscr : int array;  (** varying move [k], lane [l] at [k*lw + l] *)
  lvfscr : float array;
  lvbscr : rv array;
  lpred : int array;
      (** per-lane predicate of the masked diamond being executed: 1 =
          the lane takes the then arm, 0 = the else arm. Written by the
          diamond's predicate closure, immutable while the arms run
          (arms are pure, so nothing re-enters a diamond mid-flight). *)
  mutable lnthen : int;
      (** lanes (of the active [nl]) whose predicate is 1 — the then
          arm's population count; the else arm's is [nl - lnthen] *)
  llid : int array array;  (** 3 dims x [lw]: per-lane local ids *)
  lgid : int array array;  (** 3 dims x [lw]: per-lane global ids *)
  lcur : int array;  (** local id of the work-item after the current batch *)
  lctx : wi_ctx;
      (** shares [grp]/[lsz]/[gsz]/[ngr] with the group runner; its
          [lid]/[gid] fields are unused here (lanes read [llid]/[lgid]) *)
  largs : rv array;
  lstats : Trace.wg_stats;
  llocal : (int, Memory.buffer) Hashtbl.t;  (** alloca iid -> group buffer *)
  lmem : Memory.t;  (** private allocations land here *)
  mutable lpriv : int;
      (** private bump offset of the work-item a one-lane batch runs; the
          runtime carries it per work-item across regions *)
  mutable lsan : Sanitize.t option;
}

(** Tree-engine state of one work-item (the fiber scheduler's unit). *)
type wi_state = {
  c : compiled;
  env : rv array;  (** one boxed slot per instruction *)
  args : rv array;
  ctx : wi_ctx;
  stats : Trace.wg_stats;
  local_bufs : (int, Memory.buffer) Hashtbl.t;  (** alloca iid -> group buffer *)
  mem : Memory.t;
  mutable private_offset : int;  (** bump offset in the private address region *)
  mutable san : Sanitize.t option;
      (** installed by [Runtime.launch ~sanitizer]; [None] on normal runs *)
}

and compiled = {
  fn : func;
  slots : (int, int) Hashtbl.t;  (** instruction id -> tree environment slot *)
  n_slots : int;
  local_allocas : instr list;  (** local arrays, allocated once per group *)
  regions : Regions.verdict;
      (** barrier-region formation result, for path reporting; the
          compiled spill metadata derived from it lives in [code] *)
  code : clanes option;
      (** [Some] iff the kernel was closure-compiled and {!Regions.form}
          verified every barrier group-uniform (trivially for barrier-free
          code); [None] runs the tree engine under fibers *)
}

(** The closure-compiled kernel. Basic blocks are split at barriers into
    segments: index 0 is the kernel entry, each block's segments are
    contiguous in block order. Every value live across some barrier owns
    columns in per-kind context matrices ([n_items] rows of width
    [ctx_*]); per barrier, the (slot, column) pairs to copy are
    precompiled, split by uniformity: uniform values replicate slot
    column 0 into every active work-item's row on save, varying values
    copy one lane column per row. Slot entries are pre-multiplied bases
    ([slot * lwidth]). *)
and clanes = {
  lwidth : int;  (** lane width W the kernel was compiled for *)
  lsegs : lseg array;
  lentry : bool array;
      (** per region entry (0 = kernel entry, [b+1] = barrier [b]'s
          continuation): sweep this region in batches of W? [false] for a
          region that reaches a one-lane segment (a divergent branch
          outside a classified diamond, or a private alloca): it runs
          batches of one *)
  n_int : int;  (** slots per kind *)
  n_float : int;
  n_box : int;
  lscr_ui : int;  (** phi staging widths: uniform moves (scalars)... *)
  lscr_uf : int;
  lscr_ub : int;
  lscr_vi : int;  (** ...and varying moves (x [lwidth] lane columns) *)
  lscr_vf : int;
  lscr_vb : int;
  bar_entry : int array;  (** barrier index -> continuation segment *)
  ctx_i : int;  (** context row width per kind *)
  ctx_f : int;
  ctx_b : int;
  lsp_ui_slot : int array array;
  lsp_ui_ctx : int array array;
  lsp_uf_slot : int array array;
  lsp_uf_ctx : int array array;
  lsp_ub_slot : int array array;
  lsp_ub_ctx : int array array;
  lsp_vi_slot : int array array;
  lsp_vi_ctx : int array array;
  lsp_vf_slot : int array array;
  lsp_vf_ctx : int array array;
  lsp_vb_slot : int array array;
  lsp_vb_ctx : int array array;
}

(* Op counts are only observable at group granularity, so the statically
   known per-instruction costs of a segment are summed at compile time and
   bumped once per batch, multiplied by the active lane count. *)
and lseg = {
  lbody : (lane_state -> unit) array;
  lterm : lterm;
  c_int : int;
  c_float : int;
  c_special : int;
}

and lterm =
  | LTbr of ledge
  | LTcond of (lane_state -> int) * ledge * ledge
      (** one evaluation decides the branch for the whole batch: the
          condition is group-uniform, or the batch is one lane *)
  | LTret
  | LTbarrier of { lbar : int; lnext : int }
      (** barrier [lbar] (dense {!Regions} index); [lnext] is the
          continuation segment right after it. The region executor
          returns [lbar] to the group sweep. *)
  | LTtrap of string

and ledge = {
  le_dst : int;  (** dense index of the successor block's entry segment *)
  le_stage : (lane_state -> unit) array;
      (** evaluate every phi move over whole columns into scratch: a
          uniform move stages one value at [k], a varying one [nl] values
          at [k * lwidth]... *)
  (* ...then commit, per kind, to destination slot bases ([slot * lwidth]) *)
  lu_im_dst : int array;
  lu_fm_dst : int array;
  lu_bm_dst : int array;
  lv_im_dst : int array;
  lv_fm_dst : int array;
  lv_bm_dst : int array;
}

(* -- Shared memory-access recording ----------------------------------------- *)

let record_access (st : wi_state) (b : Memory.buffer) (idx : int)
    ~(is_write : bool) : unit =
  Trace.record st.stats
    ~addr:(Memory.addr_of b idx)
    ~bytes:b.Memory.elem_bytes ~is_write ~space:b.Memory.space
    ~wi:st.ctx.flat_lid

(* Sanitizer tap on the same access stream. Runs before the actual memory
   operation so an out-of-bounds index becomes a located finding rather
   than an [Invalid_argument] crash from [Memory.check]. *)
let san_access (st : wi_state) (b : Memory.buffer) (idx : int)
    ~(is_write : bool) ~(loc : Grover_support.Loc.t) : unit =
  match st.san with
  | None -> ()
  | Some s -> Sanitize.access s ~buf:b ~idx ~is_write ~wi:st.ctx.flat_lid ~loc

let load_elem (st : wi_state) (b : Memory.buffer) (idx : int)
    ~(loc : Grover_support.Loc.t) : rv =
  record_access st b idx ~is_write:false;
  san_access st b idx ~is_write:false ~loc;
  match b.Memory.elem with
  | F32 -> RFloat (Memory.get_float b idx)
  | I1 | I8 | I16 | I32 | I64 -> RInt (Memory.get_int b idx)
  | Vec (F32, n) -> RVecF (Array.init n (fun l -> Memory.get_lane_float b idx l))
  | Vec (_, n) -> RVecI (Array.init n (fun l -> Memory.get_lane_int b idx l))
  | _ -> trap "load of unsupported element type"

let store_elem (st : wi_state) (b : Memory.buffer) (idx : int)
    ~(loc : Grover_support.Loc.t) (v : rv) : unit =
  record_access st b idx ~is_write:true;
  san_access st b idx ~is_write:true ~loc;
  match v with
  | RFloat f -> Memory.set_float b idx f
  | RInt n -> Memory.set_int b idx n
  | RVecF a -> Array.iteri (fun l x -> Memory.set_lane_float b idx l x) a
  | RVecI a -> Array.iteri (fun l x -> Memory.set_lane_int b idx l x) a
  | RBuf _ -> trap "cannot store a pointer"

(* Float element access for the compiled engines. [Memory]'s accessors
   are in another compilation unit, so a float crossing their interface
   is boxed on every call; these read and write the storage here, after
   the same bounds check. *)
let[@inline] get_lane_f (b : Memory.buffer) (idx : int) (j : int) : float =
  Memory.check b idx;
  let k = (idx * b.Memory.lanes) + j in
  match b.Memory.st with
  | Memory.F a -> a.(k)
  | Memory.I a -> float_of_int a.(k)

let[@inline] set_lane_f (b : Memory.buffer) (idx : int) (j : int) (v : float)
    : unit =
  Memory.check b idx;
  let k = (idx * b.Memory.lanes) + j in
  match b.Memory.st with
  | Memory.F a -> a.(k) <- v
  | Memory.I a -> a.(k) <- int_of_float v

(* Lane-side taps on the same access stream: identical recording, but the
   work-item id is the batch base plus the lane index. Each lane's events
   land in its own program order, which is the only ordering the memory
   simulator and the sanitizer depend on. *)
let lane_record (ls : lane_state) (b : Memory.buffer) (idx : int)
    ~(is_write : bool) ~(wi : int) : unit =
  Trace.record ls.lstats
    ~addr:(Memory.addr_of b idx)
    ~bytes:b.Memory.elem_bytes ~is_write ~space:b.Memory.space ~wi

let lane_san (ls : lane_state) (b : Memory.buffer) (idx : int)
    ~(is_write : bool) ~(loc : Grover_support.Loc.t) ~(wi : int) : unit =
  match ls.lsan with
  | None -> ()
  | Some s -> Sanitize.access s ~buf:b ~idx ~is_write ~wi ~loc

(* Private arrays live in the private address region at the work-item's
   bump [offset]; the data array itself is fresh per allocation. *)
let alloc_private (mem : Memory.t) ~(offset : int) elem count : Memory.buffer =
  Memory.alloc_at mem ~space:Private ~base_addr:(0x0000_1000 + offset) elem count

(* == The tree-walking reference engine ====================================== *)

let slot st (i : instr) : int = Hashtbl.find st.c.slots i.iid

let rec eval (st : wi_state) (v : value) : rv =
  match v with
  | Cint (t, n) -> RInt (sext_of t n)
  | Cfloat f -> RFloat f
  | Arg a -> st.args.(a.a_index)
  | Vinstr i -> st.env.(slot st i)

and exec_call (st : wi_state) callee (args : rv list) : rv =
  let dim_of = function
    | [ RInt d ] -> if d >= 0 && d < 3 then d else trap "dimension out of range"
    | _ -> trap "%s expects a dimension" callee
  in
  match callee with
  | "get_local_id" -> RInt st.ctx.lid.(dim_of args)
  | "get_global_id" -> RInt st.ctx.gid.(dim_of args)
  | "get_group_id" -> RInt st.ctx.grp.(dim_of args)
  | "get_local_size" -> RInt st.ctx.lsz.(dim_of args)
  | "get_global_size" -> RInt st.ctx.gsz.(dim_of args)
  | "get_num_groups" -> RInt st.ctx.ngr.(dim_of args)
  | "get_global_offset" -> RInt 0
  | "get_work_dim" -> RInt 3
  | _ -> data_call callee args

(** The pure (state-free) builtin calls of the tree engine — everything
    except the work-item geometry queries. A call on vectors other than
    [dot] is componentwise. *)
and data_call callee (args : rv list) : rv =
  let width = function
    | RVecF a -> Array.length a
    | RVecI a -> Array.length a
    | _ -> 0
  in
  match args with
  | a0 :: _ when callee <> "dot" && width a0 > 0 -> (
      let comp j = function
        | RVecF a -> RFloat a.(j)
        | RVecI a -> RInt a.(j)
        | r -> r
      in
      let rs =
        List.init (width a0) (fun j ->
            scalar_call callee (List.map (comp j) args))
      in
      match rs with
      | RFloat _ :: _ -> RVecF (Array.of_list (List.map as_float rs))
      | _ -> RVecI (Array.of_list (List.map as_int rs)))
  | _ -> scalar_call callee args

and scalar_call callee (args : rv list) : rv =
  match callee with
  | "dot" -> (
      match args with
      | [ RVecF a; RVecF b ] ->
          let s = ref 0.0 in
          Array.iteri (fun i x -> s := !s +. (x *. b.(i))) a;
          RFloat !s
      | [ RFloat a; RFloat b ] -> RFloat (a *. b)
      | _ -> trap "dot expects float vectors")
  | "mad" | "fma" -> (
      match args with
      | [ RFloat a; RFloat b; RFloat c ] -> RFloat ((a *. b) +. c)
      | [ RInt a; RInt b; RInt c ] -> RInt ((a * b) + c)
      | _ -> trap "mad argument mismatch")
  | "clamp" -> (
      match args with
      | [ RFloat x; RFloat lo; RFloat hi ] -> RFloat (Float.min (Float.max x lo) hi)
      | [ RInt x; RInt lo; RInt hi ] -> RInt (min (max x lo) hi)
      | _ -> trap "clamp argument mismatch")
  | "mix" -> (
      match args with
      | [ RFloat a; RFloat b; RFloat t ] -> RFloat (a +. ((b -. a) *. t))
      | _ -> trap "mix argument mismatch")
  | "min" | "max" -> (
      let pick_i : int -> int -> int = if callee = "min" then min else max in
      let pick_f : float -> float -> float =
        if callee = "min" then Float.min else Float.max
      in
      match args with
      | [ RInt a; RInt b ] -> RInt (pick_i a b)
      | [ RFloat a; RFloat b ] -> RFloat (pick_f a b)
      | _ -> trap "min/max argument mismatch")
  | "abs" -> (
      match args with
      | [ RInt a ] -> RInt (abs a)
      | [ RFloat a ] -> RFloat (Float.abs a)
      | _ -> trap "abs argument mismatch")
  | "mul24" -> (
      match args with
      | [ RInt a; RInt b ] -> RInt (a * b)
      | _ -> trap "mul24 argument mismatch")
  | "mad24" -> (
      match args with
      | [ RInt a; RInt b; RInt c ] -> RInt ((a * b) + c)
      | _ -> trap "mad24 argument mismatch")
  | "fmax" | "fmin" | "pow" | "fmod" | "hypot" | "native_divide" -> (
      match args with
      | [ RFloat a; RFloat b ] -> RFloat (math2 callee a b)
      | _ -> trap "%s argument mismatch" callee)
  | _ -> (
      (* Remaining builtins are unary float math. *)
      match args with
      | [ RFloat x ] -> RFloat (math1 callee x)
      | _ -> trap "unsupported call %s" callee)

and exec_instr (st : wi_state) (i : instr) : unit =
  let set rv = st.env.(slot st i) <- rv in
  match i.op with
  | Binop (op, a, b) -> (
      match (eval st a, eval st b) with
      | RInt x, RInt y ->
          st.stats.Trace.int_ops <- st.stats.Trace.int_ops + 1;
          set (RInt (int_binop (type_of a) op x y))
      | RFloat x, RFloat y ->
          st.stats.Trace.float_ops <- st.stats.Trace.float_ops + 1;
          set (RFloat (float_binop op x y))
      | RVecF x, RVecF y ->
          st.stats.Trace.float_ops <- st.stats.Trace.float_ops + Array.length x;
          set (RVecF (lanes_map2 (float_binop op) x y))
      | RVecI x, RVecI y ->
          st.stats.Trace.int_ops <- st.stats.Trace.int_ops + Array.length x;
          set (RVecI (lanes_map2 (int_binop I32 op) x y))
      | _ -> trap "binop operand mismatch")
  | Icmp (c, a, b) ->
      st.stats.Trace.int_ops <- st.stats.Trace.int_ops + 1;
      set (RInt (if icmp_op (type_of a) c (as_int (eval st a)) (as_int (eval st b)) then 1 else 0))
  | Fcmp (c, a, b) ->
      st.stats.Trace.float_ops <- st.stats.Trace.float_ops + 1;
      set (RInt (if fcmp_op c (as_float (eval st a)) (as_float (eval st b)) then 1 else 0))
  | Select (c, a, b) ->
      set (if as_int (eval st c) <> 0 then eval st a else eval st b)
  | Cast (k, v, t) -> (
      st.stats.Trace.int_ops <- st.stats.Trace.int_ops + 1;
      let rv = eval st v in
      match (k, rv) with
      | (Sext | Bitcast), RInt n -> set (RInt (sext_of (type_of v) n))
      | Zext, RInt n -> set (RInt (n land mask_of (type_of v)))
      | Trunc, RInt n -> set (RInt (sext_of t n))
      | Si_to_fp, RInt n -> set (RFloat (float_of_int n))
      | Ui_to_fp, RInt n -> set (RFloat (float_of_int (n land mask_of (type_of v))))
      | Fp_to_si, RFloat f -> set (RInt (int_of_float f))
      | Bitcast, rv -> set rv
      | _ -> trap "unsupported cast")
  | Call { callee; args; _ } ->
      if List.mem callee special_fns then
        st.stats.Trace.special_ops <- st.stats.Trace.special_ops + 1
      else st.stats.Trace.int_ops <- st.stats.Trace.int_ops + 1;
      set (exec_call st callee (List.map (eval st) args))
  | Alloca { aspace = Local; _ } -> (
      match Hashtbl.find_opt st.local_bufs i.iid with
      | Some b -> set (RBuf b)
      | None -> trap "local alloca without a group buffer")
  | Alloca { aspace = Private; elem; count; _ } ->
      let b = alloc_private st.mem ~offset:st.private_offset elem count in
      st.private_offset <- st.private_offset + (count * ty_size_bytes elem);
      set (RBuf b)
  | Alloca _ -> trap "unsupported alloca space"
  | Load { ptr; index } ->
      set
        (load_elem st (as_buf (eval st ptr)) (as_int (eval st index))
           ~loc:i.iloc)
  | Store { ptr; index; v } ->
      store_elem st (as_buf (eval st ptr)) (as_int (eval st index)) ~loc:i.iloc
        (eval st v)
  | Extract (v, lane) -> (
      let l = as_int (eval st lane) in
      match eval st v with
      | RVecF a -> set (RFloat a.(l))
      | RVecI a -> set (RInt a.(l))
      | _ -> trap "extract from non-vector")
  | Insert (v, lane, s) -> (
      let l = as_int (eval st lane) in
      match (eval st v, eval st s) with
      | RVecF a, RFloat x ->
          let a = Array.copy a in
          a.(l) <- x;
          set (RVecF a)
      | RVecI a, RInt x ->
          let a = Array.copy a in
          a.(l) <- x;
          set (RVecI a)
      | _ -> trap "insert mismatch")
  | Vecbuild (t, vs) -> (
      match t with
      | Vec (F32, _) -> set (RVecF (Array.of_list (List.map (fun v -> as_float (eval st v)) vs)))
      | Vec (_, _) -> set (RVecI (Array.of_list (List.map (fun v -> as_int (eval st v)) vs)))
      | _ -> trap "vecbuild of non-vector")
  | Phi _ -> trap "phi executed outside block entry"
  | Barrier _ ->
      st.stats.Trace.barriers <- st.stats.Trace.barriers + 1;
      Effect.perform Barrier_hit
  | Br _ | Cond_br _ | Ret -> trap "terminator executed as body instruction"

and run_tree (st : wi_state) : unit =
  let cur = ref (entry st.c.fn) in
  let prev = ref None in
  let running = ref true in
  while !running do
    let blk = !cur in
    (* Phase 1: evaluate all phis against the incoming edge, then commit. *)
    let phis =
      List.filter_map
        (fun i ->
          match i.op with
          | Phi { incoming; _ } -> (
              match !prev with
              | None -> trap "phi in entry block"
              | Some p -> (
                  match
                    List.find_opt (fun (b, _) -> b.bid = p.bid) incoming
                  with
                  | Some (_, v) -> Some (i, eval st v)
                  | None -> trap "phi has no incoming for predecessor"))
          | _ -> None)
        blk.instrs
    in
    List.iter (fun (i, rv) -> st.env.(slot st i) <- rv) phis;
    List.iter
      (fun i -> match i.op with Phi _ -> () | _ -> exec_instr st i)
      blk.instrs;
    (match blk.term with
    | Some { op = Br target; _ } ->
        prev := Some blk;
        cur := target
    | Some { op = Cond_br (c, t, e); _ } ->
        st.stats.Trace.branches <- st.stats.Trace.branches + 1;
        prev := Some blk;
        cur := if as_int (eval st c) <> 0 then t else e
    | Some { op = Ret; _ } -> running := false
    | _ -> trap "missing terminator")
  done

(* == The closure compiler =================================================== *)

(* Slot assignment of the closure compiler. Scalars take one slot of their
   kind; a [<n x T>] vector takes [n] consecutive slots of its
   component kind (first slot, [n]), so a vector operation is [n] scalar
   operations on component slots and nothing is boxed. [KBox] is left to
   pointers. *)
type kind =
  | KInt of int
  | KFloat of int
  | KBox of int
  | KIvec of int * int
  | KFvec of int * int

(* A scalar operand as the compiler resolves it: a constant, a kernel
   argument, or a typed slot ([vr]: varying). Component [j] of a vector is
   the slot operand [first + j]. *)
type opnd =
  | Oint of int  (** integer constant, already sign-extended *)
  | Oflt of float
  | Oarg of int  (** kernel argument index *)
  | Oi of int * bool
  | Of of int * bool
  | Ob of int * bool
  | Onone of string  (** compiles to a trap with this message *)

let opnd_of (kinds : (int, kind) Hashtbl.t) ~(vr : bool) (v : value) : opnd =
  match v with
  | Cint (t, n) -> Oint (sext_of t n)
  | Cfloat f -> Oflt f
  | Arg a -> Oarg a.a_index
  | Vinstr i -> (
      match Hashtbl.find_opt kinds i.iid with
      | Some (KInt s) -> Oi (s, vr)
      | Some (KFloat s) -> Of (s, vr)
      | Some (KBox s) -> Ob (s, vr)
      | Some (KIvec _ | KFvec _) -> Onone "vector used as a scalar"
      | None -> Onone "use of a void value")

let comp_of (kinds : (int, kind) Hashtbl.t) ~(vr : bool) (v : value) (j : int)
    : opnd =
  match v with
  | Vinstr i -> (
      match Hashtbl.find_opt kinds i.iid with
      | Some (KFvec (s, n)) when j >= 0 && j < n -> Of (s + j, vr)
      | Some (KIvec (s, n)) when j >= 0 && j < n -> Oi (s + j, vr)
      | _ -> Onone "expected a vector")
  | _ -> Onone "expected a vector"

(* The operands an incoming value supplies to a phi of kind [k]: one per
   component slot. *)
let opnds_of (kinds : (int, kind) Hashtbl.t) ~(vr : bool) (k : kind)
    (v : value) : opnd list =
  match k with
  | KIvec (_, n) | KFvec (_, n) -> List.init n (comp_of kinds ~vr v)
  | KInt _ | KFloat _ | KBox _ -> [ opnd_of kinds ~vr v ]

(* The scalar slots a value occupies, in component order: [`I]/[`F]/[`B]
   slot numbers. Spill plans and phi moves are built from these. *)
let slots_of_kind = function
  | KInt s -> [ `I s ]
  | KFloat s -> [ `F s ]
  | KBox s -> [ `B s ]
  | KIvec (s, n) -> List.init n (fun j -> `I (s + j))
  | KFvec (s, n) -> List.init n (fun j -> `F (s + j))

(* A pure builtin resolved at compile time to a scalar function over its
   component kind; a vector call applies it per component. Mirrors
   [data_call] (the tree engine's independent implementation). *)
type sfn =
  | Sf1 of (float -> float)
  | Sf2 of (float -> float -> float)
  | Sf3 of (float -> float -> float -> float)
  | Si1 of (int -> int)
  | Si2 of (int -> int -> int)
  | Si3 of (int -> int -> int -> int)

let scalar_builtin (callee : string) ~(is_float : bool) ~(arity : int) :
    sfn option =
  match (callee, is_float, arity) with
  | ("mad" | "fma"), true, 3 -> Some (Sf3 (fun a b c -> (a *. b) +. c))
  | ("mad" | "fma" | "mad24"), false, 3 -> Some (Si3 (fun a b c -> (a * b) + c))
  | "clamp", true, 3 ->
      Some (Sf3 (fun x lo hi -> Float.min (Float.max x lo) hi))
  | "clamp", false, 3 -> Some (Si3 (fun x lo hi -> min (max x lo) hi))
  | "mix", true, 3 -> Some (Sf3 (fun a b t -> a +. ((b -. a) *. t)))
  | "min", true, 2 -> Some (Sf2 Float.min)
  | "max", true, 2 -> Some (Sf2 Float.max)
  | "min", false, 2 -> Some (Si2 min)
  | "max", false, 2 -> Some (Si2 max)
  | "mul24", false, 2 -> Some (Si2 ( * ))
  | "abs", true, 1 -> Some (Sf1 Float.abs)
  | "abs", false, 1 -> Some (Si1 abs)
  | _, true, 2 -> Option.map (fun f -> Sf2 f) (math2_fn callee)
  | _, true, 1 -> Option.map (fun f -> Sf1 f) (math1_fn callee)
  | _ -> None

(* Component count and kind of a call's result type. *)
let call_shape (t : ty) : (bool * int) option =
  match t with
  | F32 -> Some (true, 1)
  | I1 | I8 | I16 | I32 | I64 -> Some (false, 1)
  | Vec (F32, n) -> Some (true, n)
  | Vec (_, n) -> Some (false, n)
  | _ -> None

(* Static op cost of one instruction, (int, float, special) — mirrors the
   per-instruction bumps of the tree engine exactly. Summed per segment
   and per masked diamond arm, and bumped once per batch multiplied by the
   active-lane count. *)
let op_cost (i : instr) : int * int * int =
  match i.op with
  | Binop (_, a, _) -> (
      match type_of a with
      | F32 -> (0, 1, 0)
      | Vec (F32, n) -> (0, n, 0)
      | Vec (_, n) -> (n, 0, 0)
      | _ -> (1, 0, 0))
  | Icmp _ | Cast _ -> (1, 0, 0)
  | Fcmp _ -> (0, 1, 0)
  | Call { callee; _ } ->
      if List.mem callee special_fns then (0, 0, 1) else (1, 0, 0)
  | _ -> (0, 0, 0)

(* Summed static cost of a block's body — what one work-item executing
   every instruction of the block would be charged. *)
let block_cost (instrs : instr list) : int * int * int =
  List.fold_left
    (fun (ai, af, as_) (i : instr) ->
      match i.op with
      | Phi _ -> (ai, af, as_)
      | _ ->
          let ci, cf, cs = op_cost i in
          (ai + ci, af + cf, as_ + cs))
    (0, 0, 0) instrs

(* Lane-batched compilation over the segment layout {!compile_fn} builds:
   each closure advances a whole batch of up to [lw] work-items over
   struct-of-arrays columns. Uniform values (per the {!Divergence}
   fixpoint) are computed once per batch into column 0 of their slot;
   varying values loop over the active lanes. Two kinds of segment only
   have a one-lane form — a divergent branch outside a classified diamond
   branches on lane 0's condition, and a private alloca allocates for lane
   0 — and every region entry reaching one runs batches of one. *)
let compile_lanes ~(lw : int) ~(kinds : (int, kind) Hashtbl.t)
    ~(n_slots : int * int * int) ~(bidx : (int, int) Hashtbl.t)
    ~(bar_index : (int, int) Hashtbl.t) ~(bar_entry : int array)
    ~(seg_descs : (block * instr list * instr option) array)
    ~(info : Regions.info) : clanes =
  let dv = info.Regions.div in
  let kind_of (i : instr) = Hashtbl.find_opt kinds i.iid in
  let varying (v : value) =
    match v with Vinstr i -> Divergence.iid_divergent dv i.iid | _ -> false
  in
  let op (v : value) = opnd_of kinds ~vr:(varying v) v in
  let comp (v : value) (j : int) = comp_of kinds ~vr:(varying v) v j in

  (* Uniform operand getters: one value per batch, read from the slot's
     base column. The divergence fixpoint guarantees every operand of a
     uniform instruction is itself uniform, so reading column 0 is sound. *)
  let lu_iget (o : opnd) : lane_state -> int =
    match o with
    | Oint k -> fun _ -> k
    | Oarg j -> fun ls -> as_int ls.largs.(j)
    | Oi (s, _) ->
        let b = s * lw in
        fun ls -> ls.lienv.(b)
    | Onone m -> fun _ -> trap "%s" m
    | Oflt _ | Of _ | Ob _ -> fun _ -> trap "expected int, got float"
  in
  let lu_fget (o : opnd) : lane_state -> float =
    match o with
    | Oflt f -> fun _ -> f
    | Oarg j -> fun ls -> as_float ls.largs.(j)
    | Of (s, _) ->
        let b = s * lw in
        fun ls -> ls.lfenv.(b)
    | Onone m -> fun _ -> trap "%s" m
    | Oint _ | Oi _ | Ob _ -> fun _ -> trap "expected float, got int"
  in
  let lu_bget (o : opnd) : lane_state -> rv =
    match o with
    | Oarg j -> fun ls -> ls.largs.(j)
    | Ob (s, _) ->
        let b = s * lw in
        fun ls -> ls.lbenv.(b)
    | Onone m -> fun _ -> trap "%s" m
    | _ -> fun _ -> trap "expected a pointer"
  in

  (* Varying operand getters: one value per lane. A uniform operand of a
     varying instruction reads its base column whatever the lane. *)
  let lv_iget (o : opnd) : lane_state -> int -> int =
    match o with
    | Oi (s, true) ->
        let b = s * lw in
        fun ls l -> ls.lienv.(b + l)
    | _ ->
        let g = lu_iget o in
        fun ls _ -> g ls
  in
  let lv_fget (o : opnd) : lane_state -> int -> float =
    match o with
    | Of (s, true) ->
        let b = s * lw in
        fun ls l -> ls.lfenv.(b + l)
    | _ ->
        let g = lu_fget o in
        fun ls _ -> g ls
  in
  let lv_bget (o : opnd) : lane_state -> int -> rv =
    match o with
    | Ob (s, true) ->
        let b = s * lw in
        fun ls l -> ls.lbenv.(b + l)
    | _ ->
        let g = lu_bget o in
        fun ls _ -> g ls
  in
  let lv_bufget (o : opnd) : lane_state -> int -> Memory.buffer =
    let g = lv_bget o in
    fun ls l -> as_buf (g ls l)
  in

  (* Operand classification for the specialized hot loops below. An
     operand is either a varying slot read at a compile-time base offset
     (the common case in address arithmetic), or hoistable — the same
     value for every lane of a batch (constants, kernel arguments,
     uniform slots), read once at batch entry instead of per lane.
     [None] from both classifiers sends the instruction to the generic
     closure-per-operand arm. *)
  let ivar_slot = function Oi (s, true) -> Some (s * lw) | _ -> None in
  let fvar_slot = function Of (s, true) -> Some (s * lw) | _ -> None in
  let ihoist (o : opnd) =
    match o with
    | Oint _ | Oarg _ | Oi (_, false) -> Some (lu_iget o)
    | _ -> None
  in
  let fhoist (o : opnd) =
    match o with
    | Oflt _ | Oarg _ | Of (_, false) -> Some (lu_fget o)
    | _ -> None
  in
  let buf_hoist (o : opnd) =
    match o with
    | Oarg _ | Ob (_, false) ->
        let g = lu_bget o in
        Some (fun ls -> as_buf (g ls))
    | _ -> None
  in

  (* Column moves: the target slot base [dst] of [tgt] (an env, or phi
     scratch) takes the operand's value in every active lane. Float moves
     read the source inside the loop, so no float crosses a closure
     boundary. *)
  let lv_imove_to (tgt : lane_state -> int array) (o : opnd) (dst : int) :
      lane_state -> unit =
    match o with
    | Oi (s, true) ->
        let b = s * lw in
        fun ls ->
          let ie = ls.lienv and t = tgt ls in
          for l = 0 to ls.nl - 1 do
            t.(dst + l) <- ie.(b + l)
          done
    | _ ->
        let g = lu_iget o in
        fun ls ->
          let t = tgt ls and x = g ls in
          for l = 0 to ls.nl - 1 do
            t.(dst + l) <- x
          done
  in
  let lv_fmove_to (tgt : lane_state -> float array) (o : opnd) (dst : int) :
      lane_state -> unit =
    match o with
    | Of (s, true) ->
        let b = s * lw in
        fun ls ->
          let fe = ls.lfenv and t = tgt ls in
          for l = 0 to ls.nl - 1 do
            t.(dst + l) <- fe.(b + l)
          done
    | Of (s, false) ->
        let b = s * lw in
        fun ls ->
          let t = tgt ls in
          let x = ls.lfenv.(b) in
          for l = 0 to ls.nl - 1 do
            t.(dst + l) <- x
          done
    | _ ->
        let g = lu_fget o in
        fun ls ->
          let t = tgt ls and x = g ls in
          for l = 0 to ls.nl - 1 do
            t.(dst + l) <- x
          done
  in
  let lv_imove = lv_imove_to (fun ls -> ls.lienv) in
  let lv_fmove = lv_fmove_to (fun ls -> ls.lfenv) in
  let lv_bmove (o : opnd) (dst : int) : lane_state -> unit =
    let g = lv_bget o in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        ls.lbenv.(dst + l) <- g ls l
      done
  in

  (* Varying scalar builders: one result column per active lane into the
     slot base [dst]. A vector instruction is one of these per component.
     The int and float binops are the innermost ops of every address
     computation and every float4 lane, so their common operand shapes
     (slot x slot, slot x hoistable) get dedicated loops with direct
     array reads, and the wrap-free operators are inlined rather than
     called through the resolved closure. *)
  let lv_ibin t op (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    let f = int_binop_fn t op in
    let generic () =
      let ga = lv_iget oa and gb = lv_iget ob in
      fun ls ->
        for l = 0 to ls.nl - 1 do
          ls.lienv.(dst + l) <- f (ga ls l) (gb ls l)
        done
    in
    match (ivar_slot oa, ivar_slot ob) with
    | Some ao, Some bo -> (
        match op with
        | Add ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) + ie.(bo + l)
              done
        | Mul ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) * ie.(bo + l)
              done
        | Sub ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) - ie.(bo + l)
              done
        | And ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) land ie.(bo + l)
              done
        | Or ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) lor ie.(bo + l)
              done
        | Xor ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) lxor ie.(bo + l)
              done
        | Shl ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) lsl (ie.(bo + l) land 63)
              done
        | Ashr ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- ie.(ao + l) asr (ie.(bo + l) land 63)
              done
        | Lshr ->
            let m = mask_of t in
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <-
                  (ie.(ao + l) land m) lsr (ie.(bo + l) land 63)
              done
        | _ ->
            fun ls ->
              let ie = ls.lienv in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- f ie.(ao + l) ie.(bo + l)
              done)
    | Some ao, None -> (
        match ihoist ob with
        | None -> generic ()
        | Some hb -> (
            match op with
            | Add ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) + y
                  done
            | Mul ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) * y
                  done
            | Sub ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) - y
                  done
            | And ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) land y
                  done
            | Or ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) lor y
                  done
            | Xor ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) lxor y
                  done
            | Shl ->
                fun ls ->
                  let ie = ls.lienv and sh = hb ls land 63 in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) lsl sh
                  done
            | Ashr ->
                fun ls ->
                  let ie = ls.lienv and sh = hb ls land 63 in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- ie.(ao + l) asr sh
                  done
            | Lshr ->
                let m = mask_of t in
                fun ls ->
                  let ie = ls.lienv and sh = hb ls land 63 in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- (ie.(ao + l) land m) lsr sh
                  done
            | _ ->
                fun ls ->
                  let ie = ls.lienv and y = hb ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- f ie.(ao + l) y
                  done))
    | None, Some bo -> (
        match ihoist oa with
        | None -> generic ()
        | Some ha -> (
            match op with
            | Add ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x + ie.(bo + l)
                  done
            | Mul ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x * ie.(bo + l)
                  done
            | Sub ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x - ie.(bo + l)
                  done
            | And ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x land ie.(bo + l)
                  done
            | Or ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x lor ie.(bo + l)
                  done
            | Xor ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x lxor ie.(bo + l)
                  done
            | Shl ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x lsl (ie.(bo + l) land 63)
                  done
            | Ashr ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x asr (ie.(bo + l) land 63)
                  done
            | Lshr ->
                let m = mask_of t in
                fun ls ->
                  let ie = ls.lienv in
                  let x = ha ls land m in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- x lsr (ie.(bo + l) land 63)
                  done
            | _ ->
                fun ls ->
                  let ie = ls.lienv and x = ha ls in
                  for l = 0 to ls.nl - 1 do
                    ie.(dst + l) <- f x ie.(bo + l)
                  done))
    | None, None -> generic ()
  in
  let lv_icmp t c (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    let f = icmp_fn t c in
    let generic () =
      let ga = lv_iget oa and gb = lv_iget ob in
      fun ls ->
        for l = 0 to ls.nl - 1 do
          ls.lienv.(dst + l) <- (if f (ga ls l) (gb ls l) then 1 else 0)
        done
    in
    match (ivar_slot oa, ivar_slot ob) with
    | Some ao, Some bo ->
        fun ls ->
          let ie = ls.lienv in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- (if f ie.(ao + l) ie.(bo + l) then 1 else 0)
          done
    | Some ao, None -> (
        match ihoist ob with
        | None -> generic ()
        | Some hb ->
            fun ls ->
              let ie = ls.lienv and y = hb ls in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- (if f ie.(ao + l) y then 1 else 0)
              done)
    | None, Some bo -> (
        match ihoist oa with
        | None -> generic ()
        | Some ha ->
            fun ls ->
              let ie = ls.lienv and x = ha ls in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- (if f x ie.(bo + l) then 1 else 0)
              done)
    | None, None -> generic ()
  in
  let lv_fcmp c (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    let f = fcmp_fn c in
    let generic () =
      let ga = lv_fget oa and gb = lv_fget ob in
      fun ls ->
        for l = 0 to ls.nl - 1 do
          ls.lienv.(dst + l) <- (if f (ga ls l) (gb ls l) then 1 else 0)
        done
    in
    match (fvar_slot oa, fvar_slot ob) with
    | Some ao, Some bo ->
        fun ls ->
          let ie = ls.lienv and fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- (if f fe.(ao + l) fe.(bo + l) then 1 else 0)
          done
    | Some ao, None -> (
        match fhoist ob with
        | None -> generic ()
        | Some hb ->
            fun ls ->
              let ie = ls.lienv and fe = ls.lfenv and y = hb ls in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- (if f fe.(ao + l) y then 1 else 0)
              done)
    | None, Some bo -> (
        match fhoist oa with
        | None -> generic ()
        | Some ha ->
            fun ls ->
              let ie = ls.lienv and fe = ls.lfenv and x = ha ls in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- (if f x fe.(bo + l) then 1 else 0)
              done)
    | None, None -> generic ()
  in
  let lv_isel (oc : opnd) (oa : opnd) (ob : opnd) (dst : int) :
      lane_state -> unit =
    let gc = lv_iget oc in
    let generic () =
      let ga = lv_iget oa and gb = lv_iget ob in
      fun ls ->
        for l = 0 to ls.nl - 1 do
          ls.lienv.(dst + l) <-
            (if gc ls l <> 0 then ga ls l else gb ls l)
        done
    in
    match (ivar_slot oc, ivar_slot oa, ivar_slot ob) with
    | Some co, Some ao, Some bo ->
        fun ls ->
          let ie = ls.lienv in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <-
              (if ie.(co + l) <> 0 then ie.(ao + l) else ie.(bo + l))
          done
    | Some co, _, _ -> (
        match (ihoist oa, ihoist ob) with
        | Some ha, Some hb ->
            fun ls ->
              let ie = ls.lienv in
              let x = ha ls and y = hb ls in
              for l = 0 to ls.nl - 1 do
                ie.(dst + l) <- (if ie.(co + l) <> 0 then x else y)
              done
        | _ -> generic ())
    | _ -> generic ()
  in
  let lv_fsel (oc : opnd) (oa : opnd) (ob : opnd) (dst : int) :
      lane_state -> unit =
    let gc = lv_iget oc in
    let generic () =
      let ga = lv_fget oa and gb = lv_fget ob in
      fun ls ->
        for l = 0 to ls.nl - 1 do
          ls.lfenv.(dst + l) <-
            (if gc ls l <> 0 then ga ls l else gb ls l)
        done
    in
    match (ivar_slot oc, fvar_slot oa, fvar_slot ob) with
    | Some co, Some ao, Some bo ->
        fun ls ->
          let ie = ls.lienv and fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <-
              (if ie.(co + l) <> 0 then fe.(ao + l) else fe.(bo + l))
          done
    | Some co, _, _ -> (
        match (fhoist oa, fhoist ob) with
        | Some ha, Some hb ->
            fun ls ->
              let ie = ls.lienv and fe = ls.lfenv in
              let x = ha ls and y = hb ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- (if ie.(co + l) <> 0 then x else y)
              done
        | _ -> generic ())
    | _ -> generic ()
  in

  (* Scalar loads and stores of the hot shape (hoisted buffer, varying
     index slot) record straight into the trace; [None] for any other
     shape, which takes the generic per-lane loop of [lv_load]/[lv_store]. *)
  let lv_fload (optr : opnd) (oidx : opnd) loc (dst : int) :
      (lane_state -> unit) option =
    match (buf_hoist optr, ivar_slot oidx) with
    | Some hb, Some io ->
        Some (fun ls ->
            let b = hb ls in
            let ie = ls.lienv and fe = ls.lfenv in
            let bf = ls.base_flat in
            match ls.lsan with
            | None ->
                for l = 0 to ls.nl - 1 do
                  let idx = ie.(io + l) in
                  Trace.record ls.lstats
                    ~addr:(Memory.addr_of b idx)
                    ~bytes:b.Memory.elem_bytes ~is_write:false
                    ~space:b.Memory.space ~wi:(bf + l);
                  fe.(dst + l) <- get_lane_f b idx 0
                done
            | Some _ ->
                for l = 0 to ls.nl - 1 do
                  let idx = ie.(io + l) in
                  let wi = bf + l in
                  lane_record ls b idx ~is_write:false ~wi;
                  lane_san ls b idx ~is_write:false ~loc ~wi;
                  fe.(dst + l) <- get_lane_f b idx 0
                done)
    | _ -> None
  in
  let lv_iload (optr : opnd) (oidx : opnd) loc (dst : int) :
      (lane_state -> unit) option =
    match (buf_hoist optr, ivar_slot oidx) with
    | Some hb, Some io ->
        Some (fun ls ->
            let b = hb ls in
            let ie = ls.lienv in
            let bf = ls.base_flat in
            match ls.lsan with
            | None ->
                for l = 0 to ls.nl - 1 do
                  let idx = ie.(io + l) in
                  Trace.record ls.lstats
                    ~addr:(Memory.addr_of b idx)
                    ~bytes:b.Memory.elem_bytes ~is_write:false
                    ~space:b.Memory.space ~wi:(bf + l);
                  ie.(dst + l) <- Memory.get_int b idx
                done
            | Some _ ->
                for l = 0 to ls.nl - 1 do
                  let idx = ie.(io + l) in
                  let wi = bf + l in
                  lane_record ls b idx ~is_write:false ~wi;
                  lane_san ls b idx ~is_write:false ~loc ~wi;
                  ie.(dst + l) <- Memory.get_int b idx
                done)
    | _ -> None
  in
  let lv_fstore (optr : opnd) (oidx : opnd) (ov : opnd) loc :
      (lane_state -> unit) option =
    match (buf_hoist optr, ivar_slot oidx, fvar_slot ov) with
    | Some hb, Some io, Some vo ->
        Some (fun ls ->
          let b = hb ls in
          let ie = ls.lienv and fe = ls.lfenv in
          let bf = ls.base_flat in
          (match ls.lsan with
          | None ->
              for l = 0 to ls.nl - 1 do
                let idx = ie.(io + l) in
                Trace.record ls.lstats
                  ~addr:(Memory.addr_of b idx)
                  ~bytes:b.Memory.elem_bytes ~is_write:true
                  ~space:b.Memory.space ~wi:(bf + l);
                set_lane_f b idx 0 fe.(vo + l)
              done
          | Some _ ->
              for l = 0 to ls.nl - 1 do
                let idx = ie.(io + l) in
                let wi = bf + l in
                lane_record ls b idx ~is_write:true ~wi;
                lane_san ls b idx ~is_write:true ~loc ~wi;
                set_lane_f b idx 0 fe.(vo + l)
              done))
    | _ -> None
  in
  let lv_istore (optr : opnd) (oidx : opnd) (ov : opnd) loc :
      (lane_state -> unit) option =
    match (buf_hoist optr, ivar_slot oidx, ivar_slot ov) with
    | Some hb, Some io, Some vo ->
        Some (fun ls ->
          let b = hb ls in
          let ie = ls.lienv in
          let bf = ls.base_flat in
          (match ls.lsan with
          | None ->
              for l = 0 to ls.nl - 1 do
                let idx = ie.(io + l) in
                Trace.record ls.lstats
                  ~addr:(Memory.addr_of b idx)
                  ~bytes:b.Memory.elem_bytes ~is_write:true
                  ~space:b.Memory.space ~wi:(bf + l);
                Memory.set_int b idx ie.(vo + l)
              done
          | Some _ ->
              for l = 0 to ls.nl - 1 do
                let idx = ie.(io + l) in
                let wi = bf + l in
                lane_record ls b idx ~is_write:true ~wi;
                lane_san ls b idx ~is_write:true ~loc ~wi;
                Memory.set_int b idx ie.(vo + l)
              done))
    | _ -> None
  in

  let lv_fbin op (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    let generic () =
      let ga = lv_fget oa and gb = lv_fget ob and f = float_binop_fn op in
      fun ls ->
        for l = 0 to ls.nl - 1 do
          ls.lfenv.(dst + l) <- f (ga ls l) (gb ls l)
        done
    in
    match (fvar_slot oa, fvar_slot ob) with
    | Some ao, Some bo -> (
        match op with
        | Fadd ->
            fun ls ->
              let fe = ls.lfenv in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) +. fe.(bo + l)
              done
        | Fsub ->
            fun ls ->
              let fe = ls.lfenv in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) -. fe.(bo + l)
              done
        | Fmul ->
            fun ls ->
              let fe = ls.lfenv in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) *. fe.(bo + l)
              done
        | Fdiv ->
            fun ls ->
              let fe = ls.lfenv in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) /. fe.(bo + l)
              done
        | _ -> generic ())
    | Some ao, None -> (
        match (fhoist ob, op) with
        | Some hb, Fadd ->
            fun ls ->
              let fe = ls.lfenv and y = hb ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) +. y
              done
        | Some hb, Fsub ->
            fun ls ->
              let fe = ls.lfenv and y = hb ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) -. y
              done
        | Some hb, Fmul ->
            fun ls ->
              let fe = ls.lfenv and y = hb ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) *. y
              done
        | Some hb, Fdiv ->
            fun ls ->
              let fe = ls.lfenv and y = hb ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- fe.(ao + l) /. y
              done
        | _ -> generic ())
    | None, Some bo -> (
        match (fhoist oa, op) with
        | Some ha, Fadd ->
            fun ls ->
              let fe = ls.lfenv and x = ha ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- x +. fe.(bo + l)
              done
        | Some ha, Fsub ->
            fun ls ->
              let fe = ls.lfenv and x = ha ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- x -. fe.(bo + l)
              done
        | Some ha, Fmul ->
            fun ls ->
              let fe = ls.lfenv and x = ha ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- x *. fe.(bo + l)
              done
        | Some ha, Fdiv ->
            fun ls ->
              let fe = ls.lfenv and x = ha ls in
              for l = 0 to ls.nl - 1 do
                fe.(dst + l) <- x /. fe.(bo + l)
              done
        | _ -> generic ())
    | None, None -> generic ()
  in
  let lv_bsel (oc : opnd) (oa : opnd) (ob : opnd) (dst : int) :
      lane_state -> unit =
    let gc = lv_iget oc and ga = lv_bget oa and gb = lv_bget ob in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        ls.lbenv.(dst + l) <- (if gc ls l <> 0 then ga ls l else gb ls l)
      done
  in
  let mismatch (i : instr) =
    [ (fun _ -> trap "slot kind mismatch at instruction %d" i.iid) ]
  in
  let int_dst (i : instr) (mk : int -> lane_state -> unit) =
    match kind_of i with Some (KInt d) -> [ mk (d * lw) ] | _ -> mismatch i
  in
  let float_dst (i : instr) (mk : int -> lane_state -> unit) =
    match kind_of i with Some (KFloat d) -> [ mk (d * lw) ] | _ -> mismatch i
  in
  (* [n] component builders writing the vector's consecutive slots. *)
  let per_comp (d : int) (n : int) (mk : int -> int -> lane_state -> unit) =
    List.init n (fun j -> mk j ((d + j) * lw))
  in

  let lv_cast (i : instr) k (v : value) (t : ty) : (lane_state -> unit) list =
    let src_t = type_of v and o = op v in
    match (k, src_t) with
    | (Sext | Bitcast), (I1 | I8 | I16 | I32 | I64) ->
        let g = lv_iget o in
        int_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lienv.(dst + l) <- sext_of src_t (g ls l)
            done)
    | Zext, (I1 | I8 | I16 | I32 | I64) ->
        let g = lv_iget o and m = mask_of src_t in
        int_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lienv.(dst + l) <- g ls l land m
            done)
    | Trunc, (I1 | I8 | I16 | I32 | I64) ->
        let g = lv_iget o in
        int_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lienv.(dst + l) <- sext_of t (g ls l)
            done)
    | Si_to_fp, (I1 | I8 | I16 | I32 | I64) ->
        let g = lv_iget o in
        float_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lfenv.(dst + l) <- float_of_int (g ls l)
            done)
    | Ui_to_fp, (I1 | I8 | I16 | I32 | I64) ->
        let g = lv_iget o and m = mask_of src_t in
        float_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lfenv.(dst + l) <- float_of_int (g ls l land m)
            done)
    | Fp_to_si, F32 -> (
        match fvar_slot o with
        | Some a ->
            int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- int_of_float ls.lfenv.(a + l)
                done)
        | None ->
            let g = lv_fget o in
            int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- int_of_float (g ls l)
                done))
    | Bitcast, _ -> (
        match kind_of i with
        | Some (KFloat d) -> [ lv_fmove o (d * lw) ]
        | Some (KBox d) -> [ lv_bmove o (d * lw) ]
        | Some (KFvec (d, n)) -> per_comp d n (fun j -> lv_fmove (comp v j))
        | Some (KIvec (d, n)) -> per_comp d n (fun j -> lv_imove (comp v j))
        | _ -> mismatch i)
    | _ -> [ (fun _ -> trap "unsupported cast") ]
  in

  (* One pure builtin over scalars (or one vector component), resolved at
     compile time. F32 sqrt/rsqrt and mad/fma on varying slots get direct
     loops; the rest call the resolved scalar function per lane. *)
  let lv_callc callee ~(is_float : bool) (ops : opnd list) (dst : int) :
      lane_state -> unit =
    match (callee, is_float, List.map fvar_slot ops) with
    | ("sqrt" | "native_sqrt"), true, [ Some a ] ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- Float.sqrt fe.(a + l)
          done
    | ("rsqrt" | "native_rsqrt"), true, [ Some a ] ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- 1.0 /. Float.sqrt fe.(a + l)
          done
    | ("mad" | "fma"), true, [ Some a; Some b; Some c ] ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- (fe.(a + l) *. fe.(b + l)) +. fe.(c + l)
          done
    | _ -> (
        let fs = List.map lv_fget ops and is = List.map lv_iget ops in
        match (scalar_builtin callee ~is_float ~arity:(List.length ops), fs, is)
        with
        | Some (Sf1 f), [ ga ], _ ->
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lfenv.(dst + l) <- f (ga ls l)
              done
        | Some (Sf2 f), [ ga; gb ], _ ->
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lfenv.(dst + l) <- f (ga ls l) (gb ls l)
              done
        | Some (Sf3 f), [ ga; gb; gc ], _ ->
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lfenv.(dst + l) <- f (ga ls l) (gb ls l) (gc ls l)
              done
        | Some (Si1 f), _, [ ga ] ->
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- f (ga ls l)
              done
        | Some (Si2 f), _, [ ga; gb ] ->
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- f (ga ls l) (gb ls l)
              done
        | Some (Si3 f), _, [ ga; gb; gc ] ->
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- f (ga ls l) (gb ls l) (gc ls l)
              done
        | _ -> fun _ -> trap "unsupported call %s" callee)
  in

  (* A call: work-item index queries read the per-lane id rows, group
     geometry the shared context; pure builtins apply per component. *)
  let lcompile_call (i : instr) callee (args : value list) (ret : ty) :
      (lane_state -> unit) list =
    let lane_query (rows : lane_state -> int array array) =
      match args with
      | [ Cint (_, d) ] when d >= 0 && d < 3 ->
          int_dst i (fun dst ls ->
              let r = (rows ls).(d) in
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- r.(l)
              done)
      | [ dvv ] ->
          let g = lv_iget (op dvv) in
          int_dst i (fun dst ls ->
              for l = 0 to ls.nl - 1 do
                let d = g ls l in
                if d < 0 || d >= 3 then trap "dimension out of range";
                ls.lienv.(dst + l) <- (rows ls).(d).(l)
              done)
      | _ -> [ (fun _ -> trap "%s expects a dimension" callee) ]
    in
    let geom (sel : wi_ctx -> int array) =
      match args with
      | [ dvv ] ->
          let g = lv_iget (op dvv) in
          int_dst i (fun dst ls ->
              for l = 0 to ls.nl - 1 do
                let d = g ls l in
                if d < 0 || d >= 3 then trap "dimension out of range";
                ls.lienv.(dst + l) <- (sel ls.lctx).(d)
              done)
      | _ -> [ (fun _ -> trap "%s expects a dimension" callee) ]
    in
    let const k =
      int_dst i (fun dst ls ->
          for l = 0 to ls.nl - 1 do
            ls.lienv.(dst + l) <- k
          done)
    in
    match callee with
    | "get_local_id" -> lane_query (fun ls -> ls.llid)
    | "get_global_id" -> lane_query (fun ls -> ls.lgid)
    | "get_group_id" -> geom (fun c -> c.grp)
    | "get_local_size" -> geom (fun c -> c.lsz)
    | "get_global_size" -> geom (fun c -> c.gsz)
    | "get_num_groups" -> geom (fun c -> c.ngr)
    | "get_global_offset" -> const 0
    | "get_work_dim" -> const 3
    | "dot" -> (
        match (args, List.map type_of args) with
        | [ a; b ], [ F32; F32 ] -> float_dst i (lv_fbin Fmul (op a) (op b))
        | [ a; b ], [ Vec (F32, n); Vec (F32, _) ] ->
            (* summed in component order from 0.0, as the tree engine *)
            let xs = Array.init n (fun j -> lv_fget (comp a j))
            and ys = Array.init n (fun j -> lv_fget (comp b j)) in
            float_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  let s = ref 0.0 in
                  for j = 0 to n - 1 do
                    s := !s +. (xs.(j) ls l *. ys.(j) ls l)
                  done;
                  ls.lfenv.(dst + l) <- !s
                done)
        | _ -> [ (fun _ -> trap "dot expects float vectors") ])
    | _ -> (
        match (call_shape ret, kind_of i) with
        | Some (is_float, 1), Some (KInt d | KFloat d) ->
            [ lv_callc callee ~is_float (List.map op args) (d * lw) ]
        | Some (is_float, n), Some (KIvec (d, _) | KFvec (d, _)) ->
            per_comp d n (fun j ->
                lv_callc callee ~is_float (List.map (fun a -> comp a j) args))
        | _ -> [ (fun _ -> trap "unsupported call %s" callee) ])
  in

  (* Loads record one trace event per lane per access (a vector element
     is one access) and then fill every component column. [on] >= 0
     guards a masked arm: only lanes whose predicate equals [on] load. *)
  let lv_load ~(on : int) (i : instr) (ptr : value) (index : value) :
      (lane_state -> unit) list =
    let optr = op ptr and oidx = op index and loc = i.iloc in
    let gp = lv_bufget optr and gi = lv_iget oidx in
    let each (read : lane_state -> Memory.buffer -> int -> int -> unit) =
      [
        (fun ls ->
          let bf = ls.base_flat in
          for l = 0 to ls.nl - 1 do
            if on < 0 || ls.lpred.(l) = on then begin
              let b = gp ls l and idx = gi ls l in
              let wi = bf + l in
              lane_record ls b idx ~is_write:false ~wi;
              lane_san ls b idx ~is_write:false ~loc ~wi;
              read ls b idx l
            end
          done);
      ]
    in
    let fast =
      match kind_of i with
      | Some (KFloat d) when on < 0 -> lv_fload optr oidx loc (d * lw)
      | Some (KInt d) when on < 0 -> lv_iload optr oidx loc (d * lw)
      | _ -> None
    in
    match (fast, kind_of i) with
    | Some f, _ -> [ f ]
    | None, Some (KFloat d) ->
        let dst = d * lw in
        each (fun ls b idx l -> ls.lfenv.(dst + l) <- get_lane_f b idx 0)
    | None, Some (KInt d) ->
        let dst = d * lw in
        each (fun ls b idx l -> ls.lienv.(dst + l) <- Memory.get_int b idx)
    | None, Some (KFvec (d, n)) ->
        let dst = d * lw in
        each (fun ls b idx l ->
            for j = 0 to n - 1 do
              ls.lfenv.(dst + (j * lw) + l) <- get_lane_f b idx j
            done)
    | None, Some (KIvec (d, n)) ->
        let dst = d * lw in
        each (fun ls b idx l ->
            for j = 0 to n - 1 do
              ls.lienv.(dst + (j * lw) + l) <- Memory.get_lane_int b idx j
            done)
    | _ -> [ (fun _ -> trap "load of unsupported element type") ]
  in
  let lv_store (i : instr) (ptr : value) (index : value) (v : value) :
      lane_state -> unit =
    let optr = op ptr and oidx = op index and loc = i.iloc in
    let gp = lv_bufget optr and gi = lv_iget oidx in
    let each (write : lane_state -> Memory.buffer -> int -> int -> unit) ls =
      let bf = ls.base_flat in
      for l = 0 to ls.nl - 1 do
        let b = gp ls l and idx = gi ls l in
        let wi = bf + l in
        lane_record ls b idx ~is_write:true ~wi;
        lane_san ls b idx ~is_write:true ~loc ~wi;
        write ls b idx l
      done
    in
    (* a uniform vector is read from column 0 of each component *)
    let stride = if varying v then 1 else 0 in
    match (type_of v, v) with
    | F32, _ -> (
        match lv_fstore optr oidx (op v) loc with
        | Some f -> f
        | None ->
            let gv = lv_fget (op v) in
            each (fun ls b idx l -> set_lane_f b idx 0 (gv ls l)))
    | (I1 | I8 | I16 | I32 | I64), _ -> (
        match lv_istore optr oidx (op v) loc with
        | Some f -> f
        | None ->
            let gv = lv_iget (op v) in
            each (fun ls b idx l -> Memory.set_int b idx (gv ls l)))
    | Vec _, Vinstr vi -> (
        match kind_of vi with
        | Some (KFvec (s, n)) ->
            each (fun ls b idx l ->
                for j = 0 to n - 1 do
                  set_lane_f b idx j
                    ls.lfenv.(((s + j) * lw) + (l * stride))
                done)
        | Some (KIvec (s, n)) ->
            each (fun ls b idx l ->
                for j = 0 to n - 1 do
                  Memory.set_lane_int b idx j
                    ls.lienv.(((s + j) * lw) + (l * stride))
                done)
        | _ -> fun _ -> trap "store of a non-vector")
    | _ -> fun _ -> trap "cannot store a pointer"
  in

  (* A varying instruction: one result column per active lane and per
     component. *)
  let lcompile_var (i : instr) : (lane_state -> unit) list =
    match (i.op, kind_of i) with
    | Binop (bop, a, b), Some (KInt d) ->
        [ lv_ibin (type_of a) bop (op a) (op b) (d * lw) ]
    | Binop (bop, a, b), Some (KFloat d) ->
        [ lv_fbin bop (op a) (op b) (d * lw) ]
    | Binop (bop, a, b), Some (KFvec (d, n)) ->
        per_comp d n (fun j -> lv_fbin bop (comp a j) (comp b j))
    | Binop (bop, a, b), Some (KIvec (d, n)) ->
        per_comp d n (fun j -> lv_ibin I32 bop (comp a j) (comp b j))
    | Icmp (c, a, b), Some (KInt d) ->
        [ lv_icmp (type_of a) c (op a) (op b) (d * lw) ]
    | Fcmp (c, a, b), Some (KInt d) -> [ lv_fcmp c (op a) (op b) (d * lw) ]
    | Select (c, a, b), Some (KInt d) ->
        [ lv_isel (op c) (op a) (op b) (d * lw) ]
    | Select (c, a, b), Some (KFloat d) ->
        [ lv_fsel (op c) (op a) (op b) (d * lw) ]
    | Select (c, a, b), Some (KBox d) ->
        [ lv_bsel (op c) (op a) (op b) (d * lw) ]
    | Select (c, a, b), Some (KFvec (d, n)) ->
        per_comp d n (fun j -> lv_fsel (op c) (comp a j) (comp b j))
    | Select (c, a, b), Some (KIvec (d, n)) ->
        per_comp d n (fun j -> lv_isel (op c) (comp a j) (comp b j))
    | Cast (k, v, t), _ -> lv_cast i k v t
    | Call { callee; args; ret }, _ -> lcompile_call i callee args ret
    | Alloca { aspace = Local; _ }, Some (KBox d) ->
        let iid = i.iid and dst = d * lw in
        [
          (fun ls ->
            match Hashtbl.find_opt ls.llocal iid with
            | Some b ->
                let r = RBuf b in
                for l = 0 to ls.nl - 1 do
                  ls.lbenv.(dst + l) <- r
                done
            | None -> trap "local alloca without a group buffer");
        ]
    | Alloca { aspace = Private; elem; count; _ }, Some (KBox d) ->
        (* one-lane form: allocates for lane 0's work-item *)
        let dst = d * lw and bytes = count * ty_size_bytes elem in
        [
          (fun ls ->
            let b = alloc_private ls.lmem ~offset:ls.lpriv elem count in
            ls.lpriv <- ls.lpriv + bytes;
            ls.lbenv.(dst) <- RBuf b);
        ]
    | Load { ptr; index }, _ -> lv_load ~on:(-1) i ptr index
    | Store { ptr; index; v }, _ -> [ lv_store i ptr index v ]
    (* Vector lanes are in-range constants ({!Verify} rejects anything
       else); [comp] resolves an out-of-range one to a trap. *)
    | Extract (v, Cint (t, j)), Some (KFloat d) ->
        [ lv_fmove (comp v (sext_of t j)) (d * lw) ]
    | Extract (v, Cint (t, j)), Some (KInt d) ->
        [ lv_imove (comp v (sext_of t j)) (d * lw) ]
    | Insert (v, Cint (t, j), s), Some (KFvec (d, n)) ->
        let j = sext_of t j in
        if j < 0 || j >= n then mismatch i
        else per_comp d n (fun k -> lv_fmove (if k = j then op s else comp v k))
    | Insert (v, Cint (t, j), s), Some (KIvec (d, n)) ->
        let j = sext_of t j in
        if j < 0 || j >= n then mismatch i
        else per_comp d n (fun k -> lv_imove (if k = j then op s else comp v k))
    | Vecbuild (_, vs), Some (KFvec (d, _)) ->
        List.mapi (fun k v -> lv_fmove (op v) ((d + k) * lw)) vs
    | Vecbuild (_, vs), Some (KIvec (d, _)) ->
        List.mapi (fun k v -> lv_imove (op v) ((d + k) * lw)) vs
    | Phi _, _ -> [ (fun _ -> trap "phi executed outside block entry") ]
    | Barrier _, _ -> [ (fun _ -> trap "barrier executed as a body instruction") ]
    | (Br _ | Cond_br _ | Ret), _ ->
        [ (fun _ -> trap "terminator executed as body instruction") ]
    | _ -> mismatch i
  in

  (* A uniform instruction is computed once per batch into the base
     column: it is the varying instruction run over one lane, since all
     of its operands are uniform and lane 0 of a slot is its base column. *)
  let uniform (i : instr) =
    Hashtbl.mem kinds i.iid && not (Divergence.iid_divergent dv i.iid)
  in
  let uni_window (gs : (lane_state -> unit) list) : lane_state -> unit =
    let gs = Array.of_list gs in
    fun ls ->
      let nl = ls.nl in
      ls.nl <- 1;
      for k = 0 to Array.length gs - 1 do
        gs.(k) ls
      done;
      ls.nl <- nl
  in
  let lcompile_uni (i : instr) : (lane_state -> unit) list =
    [ uni_window (lcompile_var i) ]
  in
  (* A segment body: each run of consecutive uniform instructions shares
     one [nl = 1] window. *)
  let lane_body (instrs : instr list) : (lane_state -> unit) list =
    let flush run acc =
      if run = [] then acc else uni_window (List.rev run) :: acc
    in
    let run, acc =
      List.fold_left
        (fun (run, acc) (i : instr) ->
          match i.op with
          | Phi _ -> (run, acc)
          | _ when uniform i -> (List.rev_append (lcompile_var i) run, acc)
          | _ -> ([], List.rev_append (lcompile_var i) (flush run acc)))
        ([], []) instrs
    in
    List.rev (flush run acc)
  in

  (* Per-edge phi moves, split by the destination phi's uniformity. The
     fixpoint guarantees a uniform phi only has uniform incomings. Each
     move stages into scratch over whole columns (one value for a uniform
     move, [nl] for a varying one); a vector phi is one move per
     component. *)
  let scr_ui = ref 0 and scr_uf = ref 0 and scr_ub = ref 0 in
  let scr_vi = ref 0 and scr_vf = ref 0 and scr_vb = ref 0 in
  let opnds_of k v = opnds_of kinds ~vr:(varying v) k v in
  let mk_ledge (src : block) (dst : block) : ledge =
    let stage = ref [] in
    let ui = ref [] and uf = ref [] and ub = ref [] in
    let vi = ref [] and vf = ref [] and vb = ref [] in
    let add ~(uni : bool) slot (o : opnd) =
      let g =
        match (slot, uni) with
        | `I s, true ->
            let k = List.length !ui and g = lu_iget o in
            ui := (s * lw) :: !ui;
            fun ls -> ls.luiscr.(k) <- g ls
        | `F s, true -> (
            let k = List.length !uf in
            uf := (s * lw) :: !uf;
            match o with
            | Of (x, _) ->
                let x = x * lw in
                fun ls -> ls.lufscr.(k) <- ls.lfenv.(x)
            | _ ->
                let g = lu_fget o in
                fun ls -> ls.lufscr.(k) <- g ls)
        | `B s, true ->
            let k = List.length !ub and g = lu_bget o in
            ub := (s * lw) :: !ub;
            fun ls -> ls.lubscr.(k) <- g ls
        | `I s, false ->
            let k = List.length !vi in
            vi := (s * lw) :: !vi;
            lv_imove_to (fun ls -> ls.lviscr) o (k * lw)
        | `F s, false ->
            let k = List.length !vf in
            vf := (s * lw) :: !vf;
            lv_fmove_to (fun ls -> ls.lvfscr) o (k * lw)
        | `B s, false ->
            let k = List.length !vb and g = lv_bget o in
            vb := (s * lw) :: !vb;
            fun ls ->
              for l = 0 to ls.nl - 1 do
                ls.lvbscr.((k * lw) + l) <- g ls l
              done
      in
      stage := g :: !stage
    in
    List.iter
      (fun (pi : instr) ->
        match pi.op with
        | Phi { incoming; _ } -> (
            match
              ( List.find_opt (fun (b, _) -> b.bid = src.bid) incoming,
                kind_of pi )
            with
            | None, _ ->
                stage :=
                  (fun _ -> trap "phi has no incoming for predecessor")
                  :: !stage
            | Some (_, v), Some k ->
                let uni = not (Divergence.iid_divergent dv pi.iid) in
                List.iter2 (add ~uni) (slots_of_kind k) (opnds_of k v)
            | Some _, None -> ())
        | _ -> ())
      dst.instrs;
    let arr r = Array.of_list (List.rev !r) in
    scr_ui := max !scr_ui (List.length !ui);
    scr_uf := max !scr_uf (List.length !uf);
    scr_ub := max !scr_ub (List.length !ub);
    scr_vi := max !scr_vi (List.length !vi);
    scr_vf := max !scr_vf (List.length !vf);
    scr_vb := max !scr_vb (List.length !vb);
    {
      le_dst = Hashtbl.find bidx dst.bid;
      le_stage = arr stage;
      lu_im_dst = arr ui;
      lu_fm_dst = arr uf;
      lu_bm_dst = arr ub;
      lv_im_dst = arr vi;
      lv_fm_dst = arr vf;
      lv_bm_dst = arr vb;
    }
  in
  let bare_ledge (dst : block) : ledge =
    {
      le_dst = Hashtbl.find bidx dst.bid;
      le_stage = [||];
      lu_im_dst = [||];
      lu_fm_dst = [||];
      lu_bm_dst = [||];
      lv_im_dst = [||];
      lv_fm_dst = [||];
      lv_bm_dst = [||];
    }
  in

  (* -- Masked diamond if-conversion ---------------------------------------

     A divergent [Cond_br] classified by {!Regions} as a pure diamond is
     compiled into the branch block's own segment: a predicate closure
     fills [lpred]/[lnthen] (charging one branch per lane, as the tree
     engine does per work-item), each arm's body runs under its mask, phi
     nodes at the join are written as per-lane masked merges, and the
     terminator becomes a plain jump to the join. Pure varying
     instructions evaluate flat over every lane — an inactive lane's
     garbage is only ever read by the masked merge, which selects the
     other side — while instructions whose execution is observable or can
     fault (loads: trace/sanitizer event identity; integer division:
     traps) run under an explicit per-lane guard. Each arm's static cost
     is charged per active lane and the arm is skipped outright when no
     lane takes it, so trace totals stay bit-identical to the tree
     engine, which executes an arm only for the work-items that branch
     into it. *)
  let blk_of_bid : (int, block) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun ((b : block), _, _) -> Hashtbl.replace blk_of_bid b.bid b)
    seg_descs;

  (* Guarded integer division; [on] is the [lpred] value (1 = then, 0 =
     else) that activates this arm. *)
  let lv_idiv_masked ~(on : int) t bop (oa : opnd) (ob : opnd) (dst : int) :
      lane_state -> unit =
    let f = int_binop_fn t bop and ga = lv_iget oa and gb = lv_iget ob in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        if ls.lpred.(l) = on then ls.lienv.(dst + l) <- f (ga ls l) (gb ls l)
      done
  in
  let lane_arm_instr ~(on : int) (i : instr) : (lane_state -> unit) list =
    if uniform i then
      (* uniform: computed flat once per batch — safe because the arm
         body is skipped entirely when no lane is active, and a uniform
         divisor is the same value the tree engine divides by for every
         work-item that takes the arm *)
      lcompile_uni i
    else
      match (i.op, kind_of i) with
      | Load { ptr; index }, _ -> lv_load ~on i ptr index
      | Binop (((Sdiv | Udiv | Srem | Urem) as bop), a, b), Some (KInt d) ->
          [ lv_idiv_masked ~on (type_of a) bop (op a) (op b) (d * lw) ]
      | Binop (((Sdiv | Udiv | Srem | Urem) as bop), a, b), Some (KIvec (d, n))
        ->
          per_comp d n (fun j ->
              lv_idiv_masked ~on I32 bop (comp a j) (comp b j))
      | _ -> lcompile_var i
  in

  (* Per-lane masked merges for the join's phis: each lane selects the
     incoming value of the arm it took, per component. Join phis are
     divergent by construction (the divergence fixpoint marks every phi
     of a join block), so the destinations are varying columns. *)
  let lv_merge slot (ot : opnd) (oe : opnd) : lane_state -> unit =
    match slot with
    | `I s ->
        let b = s * lw and gt = lv_iget ot and ge = lv_iget oe in
        fun ls ->
          let ie = ls.lienv and pr = ls.lpred in
          for l = 0 to ls.nl - 1 do
            ie.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
          done
    | `F s -> (
        let b = s * lw in
        match (fvar_slot ot, fvar_slot oe) with
        | Some x, Some y ->
            fun ls ->
              let fe = ls.lfenv and pr = ls.lpred in
              for l = 0 to ls.nl - 1 do
                fe.(b + l) <- (if pr.(l) <> 0 then fe.(x + l) else fe.(y + l))
              done
        | _ ->
            let gt = lv_fget ot and ge = lv_fget oe in
            fun ls ->
              let fe = ls.lfenv and pr = ls.lpred in
              for l = 0 to ls.nl - 1 do
                fe.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
              done)
    | `B s ->
        let b = s * lw and gt = lv_bget ot and ge = lv_bget oe in
        fun ls ->
          let be = ls.lbenv and pr = ls.lpred in
          for l = 0 to ls.nl - 1 do
            be.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
          done
  in
  let masked_phi_merges (jb : block) ~(tpred : int) ~(epred : int) :
      (lane_state -> unit) list =
    List.concat_map
      (fun (pi : instr) ->
        match pi.op with
        | Phi { incoming; _ } -> (
            let inc bid =
              List.find_opt (fun ((p : block), _) -> p.bid = bid) incoming
            in
            match (inc tpred, inc epred, kind_of pi) with
            | _, _, None -> []
            | Some (_, tv), Some (_, ev), Some k ->
                let sl = slots_of_kind k in
                List.map2
                  (fun s (ot, oe) -> lv_merge s ot oe)
                  sl
                  (List.combine (opnds_of k tv) (opnds_of k ev))
            | _ -> [ (fun _ -> trap "phi has no incoming for a diamond edge") ])
        | _ -> [])
      jb.instrs
  in
  let compile_diamond (b : block) (c : value) (d : Regions.diamond) :
      (lane_state -> unit) list * lterm =
    let arm_blk = Option.map (Hashtbl.find blk_of_bid) in
    let tb = arm_blk d.Regions.d_then and eb = arm_blk d.Regions.d_else in
    let jb = Hashtbl.find blk_of_bid d.Regions.d_join in
    let gc = lv_iget (op c) in
    let predicate ls =
      let n = ls.nl in
      let m = ref 0 in
      for l = 0 to n - 1 do
        let p = if gc ls l <> 0 then 1 else 0 in
        ls.lpred.(l) <- p;
        m := !m + p
      done;
      ls.lnthen <- !m;
      ls.lstats.Trace.branches <- ls.lstats.Trace.branches + n
    in
    let arm ~(on : int) (ab : block option) : (lane_state -> unit) list =
      match ab with
      | None -> []
      | Some blk ->
          let body =
            Array.of_list (List.concat_map (lane_arm_instr ~on) blk.instrs)
          in
          let ci, cf, cs = block_cost blk.instrs in
          [
            (fun ls ->
              let act = if on = 1 then ls.lnthen else ls.nl - ls.lnthen in
              if act > 0 then begin
                let st = ls.lstats in
                st.Trace.int_ops <- st.Trace.int_ops + (ci * act);
                st.Trace.float_ops <- st.Trace.float_ops + (cf * act);
                st.Trace.special_ops <- st.Trace.special_ops + (cs * act);
                for k = 0 to Array.length body - 1 do
                  body.(k) ls
                done
              end);
          ]
    in
    let tpred = Option.value d.Regions.d_then ~default:b.bid
    and epred = Option.value d.Regions.d_else ~default:b.bid in
    let merges = masked_phi_merges jb ~tpred ~epred in
    ( (predicate :: arm ~on:1 tb) @ arm ~on:0 eb @ merges,
      LTbr (bare_ledge jb) )
  in

  (* Compile every segment; [one_lane] marks those that only have the
     one-lane form. *)
  let n_segs = Array.length seg_descs in
  let one_lane = Array.make n_segs false in
  let lsegs =
    Array.mapi
      (fun si ((b : block), (instrs : instr list), (bar : instr option)) ->
        if
          List.exists
            (fun (i : instr) ->
              match i.op with Alloca { aspace = Private; _ } -> true | _ -> false)
            instrs
        then one_lane.(si) <- true;
        let lbody = lane_body instrs in
        let lbody =
          if
            si = 0
            && List.exists
                 (fun (i : instr) ->
                   match i.op with Phi _ -> true | _ -> false)
                 instrs
          then (fun _ -> trap "phi in entry block") :: lbody
          else lbody
        in
        let extra, lterm =
          match bar with
          | Some bi ->
              let lbar = Hashtbl.find bar_index bi.iid in
              ([], LTbarrier { lbar; lnext = bar_entry.(lbar) })
          | None -> (
              match b.term with
              | Some { op = Br target; _ } -> ([], LTbr (mk_ledge b target))
              | Some { op = Cond_br (c, t, e); _ } -> (
                  match Hashtbl.find_opt info.Regions.diamonds b.bid with
                  | Some d when Divergence.value_divergent dv c ->
                      compile_diamond b c d
                  | _ ->
                      (* uniform, or the one-lane form: lane 0's condition
                         (column 0) decides *)
                      if Divergence.value_divergent dv c then
                        one_lane.(si) <- true;
                      ([], LTcond (lu_iget (op c), mk_ledge b t, mk_ledge b e)))
              | Some { op = Ret; _ } -> ([], LTret)
              | _ -> ([], LTtrap "missing terminator"))
        in
        let c_int, c_float, c_special = block_cost instrs in
        { lbody = Array.of_list (lbody @ extra); lterm; c_int; c_float; c_special })
      seg_descs
  in

  (* A region entry runs W-wide batches iff {!Regions} said so and no
     segment reachable from it (stopping at barriers) is one-lane. *)
  let entry_seg e = if e = 0 then 0 else bar_entry.(e - 1) in
  let reachable_ok (start : int) : bool =
    let seen = Array.make (max 1 n_segs) false in
    let ok = ref true in
    let rec walk s =
      if !ok && not seen.(s) then begin
        seen.(s) <- true;
        if one_lane.(s) then ok := false
        else
          match lsegs.(s).lterm with
          | LTbr e -> walk e.le_dst
          | LTcond (_, t, e) ->
              walk t.le_dst;
              walk e.le_dst
          | LTret | LTbarrier _ | LTtrap _ -> ()
      end
    in
    walk start;
    !ok
  in
  let lentry =
    Array.init
      (Array.length info.Regions.lane_entries)
      (fun e ->
        Regions.lane_ok info.Regions.lane_entries.(e)
        && reachable_ok (entry_seg e))
  in

  (* Context columns: every value live across {e some} barrier owns one
     column per component in its kind's per-work-item context row. *)
  let ctx_col : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let ci = ref 0 and cf = ref 0 and cb = ref 0 in
  let take r n =
    let c = !r in
    r := c + n;
    c
  in
  Array.iter
    (Array.iter (fun iid ->
         if not (Hashtbl.mem ctx_col iid) then
           match Option.map slots_of_kind (Hashtbl.find_opt kinds iid) with
           | Some (`I _ :: _ as sl) -> Hashtbl.replace ctx_col iid (take ci (List.length sl))
           | Some (`F _ :: _ as sl) -> Hashtbl.replace ctx_col iid (take cf (List.length sl))
           | Some (`B _ :: _ as sl) -> Hashtbl.replace ctx_col iid (take cb (List.length sl))
           | Some [] | None -> ()))
    info.Regions.live_across;

  (* Spill plans per barrier: slot bases pre-multiplied, split by
     uniformity. *)
  let n_bars = Array.length info.Regions.barriers in
  let uis = Array.make n_bars [||] and uic = Array.make n_bars [||] in
  let ufs = Array.make n_bars [||] and ufc = Array.make n_bars [||] in
  let ubs = Array.make n_bars [||] and ubc = Array.make n_bars [||] in
  let vis = Array.make n_bars [||] and vic = Array.make n_bars [||] in
  let vfs = Array.make n_bars [||] and vfc = Array.make n_bars [||] in
  let vbs = Array.make n_bars [||] and vbc = Array.make n_bars [||] in
  Array.iteri
    (fun j (bi : instr) ->
      let at = Hashtbl.find bar_index bi.iid in
      let ui = ref [] and uf = ref [] and ub = ref [] in
      let vi = ref [] and vf = ref [] and vb = ref [] in
      Array.iter
        (fun iid ->
          let u = not (Divergence.iid_divergent dv iid) in
          match Hashtbl.find_opt kinds iid with
          | Some k ->
              let c0 = Hashtbl.find ctx_col iid in
              List.iteri
                (fun c slot ->
                  match slot with
                  | `I s ->
                      let p = (s * lw, c0 + c) in
                      if u then ui := p :: !ui else vi := p :: !vi
                  | `F s ->
                      let p = (s * lw, c0 + c) in
                      if u then uf := p :: !uf else vf := p :: !vf
                  | `B s ->
                      let p = (s * lw, c0 + c) in
                      if u then ub := p :: !ub else vb := p :: !vb)
                (slots_of_kind k)
          | None -> ())
        info.Regions.live_across.(j);
      let fill slots cols l =
        let a = Array.of_list (List.rev l) in
        slots.(at) <- Array.map fst a;
        cols.(at) <- Array.map snd a
      in
      fill uis uic !ui;
      fill ufs ufc !uf;
      fill ubs ubc !ub;
      fill vis vic !vi;
      fill vfs vfc !vf;
      fill vbs vbc !vb)
    info.Regions.barriers;
  let n_int, n_float, n_box = n_slots in
  {
    lwidth = lw;
    lsegs;
    lentry;
    n_int;
    n_float;
    n_box;
    lscr_ui = !scr_ui;
    lscr_uf = !scr_uf;
    lscr_ub = !scr_ub;
    lscr_vi = !scr_vi;
    lscr_vf = !scr_vf;
    lscr_vb = !scr_vb;
    bar_entry;
    ctx_i = !ci;
    ctx_f = !cf;
    ctx_b = !cb;
    lsp_ui_slot = uis;
    lsp_ui_ctx = uic;
    lsp_uf_slot = ufs;
    lsp_uf_ctx = ufc;
    lsp_ub_slot = ubs;
    lsp_ub_ctx = ubc;
    lsp_vi_slot = vis;
    lsp_vi_ctx = vic;
    lsp_vf_slot = vfs;
    lsp_vf_ctx = vfc;
    lsp_vb_slot = vbs;
    lsp_vb_ctx = vbc;
  }

(* Slot kinds, segment layout and barrier numbering of [fn], then its lane
   code. [None] when the barriers do not form regions: such a kernel runs
   the tree engine under fibers. *)
let compile_fn ~(lane_width : int) (fn : func) (regions : Regions.verdict) :
    clanes option =
  match regions with
  | Regions.Fallback _ -> None
  | Regions.Formed info ->
      let kinds : (int, kind) Hashtbl.t = Hashtbl.create 64 in
      let ni = ref 0 and nf = ref 0 and nb = ref 0 in
      let take r n =
        let s = !r in
        r := s + n;
        s
      in
      iter_instrs
        (fun i ->
          match type_of_opcode i.op with
          | Void -> ()
          | I1 | I8 | I16 | I32 | I64 ->
              Hashtbl.replace kinds i.iid (KInt (take ni 1))
          | F32 -> Hashtbl.replace kinds i.iid (KFloat (take nf 1))
          | Vec (F32, n) -> Hashtbl.replace kinds i.iid (KFvec (take nf n, n))
          | Vec (_, n) -> Hashtbl.replace kinds i.iid (KIvec (take ni n, n))
          | _ -> Hashtbl.replace kinds i.iid (KBox (take nb 1))
          | exception Invalid_argument _ -> ())
        fn;
      (* Segment layout: each block contributes an entry segment plus one
         continuation segment per barrier it contains, laid out
         contiguously. [bidx] maps a block id to its entry segment (branch
         edges can only target block entries); [bar_index]/[bar_entry]
         number barriers densely in block-then-body order, matching
         {!Regions.form}. [seg_descs] keeps, per segment, its owning block,
         body instructions and terminating barrier (if any). *)
      let bidx : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let bar_index : (int, int) Hashtbl.t = Hashtbl.create 4 in
      let n_segs = ref 0 and n_bars = ref 0 in
      let bar_entry_rev = ref [] in
      let cut_block (b : block) =
        Hashtbl.replace bidx b.bid !n_segs;
        incr n_segs;
        let rec go acc cur = function
          | [] -> List.rev ((b, List.rev cur, None) :: acc)
          | (i : instr) :: tl
            when match i.op with Barrier _ -> true | _ -> false ->
              Hashtbl.replace bar_index i.iid !n_bars;
              incr n_bars;
              bar_entry_rev := !n_segs :: !bar_entry_rev;
              incr n_segs;
              go ((b, List.rev cur, Some i) :: acc) [] tl
          | i :: tl -> go acc (i :: cur) tl
        in
        go [] [] b.instrs
      in
      let seg_descs = Array.of_list (List.concat_map cut_block fn.blocks) in
      let bar_entry = Array.of_list (List.rev !bar_entry_rev) in
      let enumeration_matches =
        Array.length info.barriers = !n_bars
        && Array.for_all
             (fun (bi : instr) -> Hashtbl.mem bar_index bi.iid)
             info.barriers
      in
      if not enumeration_matches then None
      else
        Some
          (compile_lanes ~lw:lane_width ~kinds ~n_slots:(!ni, !nf, !nb) ~bidx
             ~bar_index ~bar_entry ~seg_descs ~info)

(* -- The region executor -------------------------------------------------------

   [run_lane_region] drives a whole batch of [nl] consecutive work-items
   through the current parallel region in one pass over the compiled
   segments, until the batch either returns (result -1) or reaches a
   barrier (result = the barrier's dense index; the group sweep continues
   at [bar_entry.(bar)] once every batch arrived there). Segment costs are
   bumped once per batch, multiplied by the active lane count, so trace
   totals are bit-identical to the tree engine. *)

let take_ledge (ls : lane_state) (e : ledge) : int =
  let stage = e.le_stage in
  if Array.length stage > 0 then begin
    let lw = ls.lw and nl = ls.nl in
    (* Stage every move against the predecessor's columns... *)
    for k = 0 to Array.length stage - 1 do
      stage.(k) ls
    done;
    (* ...then commit. *)
    let d = e.lu_im_dst in
    for k = 0 to Array.length d - 1 do
      ls.lienv.(d.(k)) <- ls.luiscr.(k)
    done;
    let d = e.lu_fm_dst in
    for k = 0 to Array.length d - 1 do
      ls.lfenv.(d.(k)) <- ls.lufscr.(k)
    done;
    let d = e.lu_bm_dst in
    for k = 0 to Array.length d - 1 do
      ls.lbenv.(d.(k)) <- ls.lubscr.(k)
    done;
    let d = e.lv_im_dst in
    for k = 0 to Array.length d - 1 do
      let dk = d.(k) and base = k * lw in
      for l = 0 to nl - 1 do
        ls.lienv.(dk + l) <- ls.lviscr.(base + l)
      done
    done;
    let d = e.lv_fm_dst in
    for k = 0 to Array.length d - 1 do
      let dk = d.(k) and base = k * lw in
      for l = 0 to nl - 1 do
        ls.lfenv.(dk + l) <- ls.lvfscr.(base + l)
      done
    done;
    let d = e.lv_bm_dst in
    for k = 0 to Array.length d - 1 do
      let dk = d.(k) and base = k * lw in
      for l = 0 to nl - 1 do
        ls.lbenv.(dk + l) <- ls.lvbscr.(base + l)
      done
    done
  end;
  e.le_dst

let run_lane_region (ls : lane_state) (ln : clanes) ~(from : int) : int =
  let segs = ln.lsegs in
  let cur = ref from in
  let exitc = ref (-1) in
  let running = ref true in
  let stats = ls.lstats in
  let nl = ls.nl in
  while !running do
    let sg = segs.(!cur) in
    stats.Trace.int_ops <- stats.Trace.int_ops + (sg.c_int * nl);
    stats.Trace.float_ops <- stats.Trace.float_ops + (sg.c_float * nl);
    stats.Trace.special_ops <- stats.Trace.special_ops + (sg.c_special * nl);
    let body = sg.lbody in
    for k = 0 to Array.length body - 1 do
      body.(k) ls
    done;
    match sg.lterm with
    | LTbr e -> cur := take_ledge ls e
    | LTcond (g, t, e) ->
        stats.Trace.branches <- stats.Trace.branches + nl;
        cur := (if g ls <> 0 then take_ledge ls t else take_ledge ls e)
    | LTret -> running := false
    | LTbarrier { lbar; lnext = _ } ->
        stats.Trace.barriers <- stats.Trace.barriers + nl;
        exitc := lbar;
        running := false
    | LTtrap m -> trap "%s" m
  done;
  !exitc

(* Spill save/restore against the per-work-item context matrices: uniform
   values replicate their base column into every active row on save and
   read the batch's base row on restore (a group-uniform value is
   identical in every row by construction, whatever batch width wrote
   it); varying values copy one lane column per row. *)

let lane_spill_save (ls : lane_state) (ln : clanes) ~(bar : int)
    ~(ictx : int array) ~(fctx : float array) ~(bctx : rv array) : unit =
  let bf = ls.base_flat and nl = ls.nl in
  let slots = ln.lsp_ui_slot.(bar) and cols = ln.lsp_ui_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let v = ls.lienv.(slots.(k)) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ictx.(((bf + l) * ln.ctx_i) + c) <- v
    done
  done;
  let slots = ln.lsp_uf_slot.(bar) and cols = ln.lsp_uf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let v = ls.lfenv.(slots.(k)) and c = cols.(k) in
    for l = 0 to nl - 1 do
      fctx.(((bf + l) * ln.ctx_f) + c) <- v
    done
  done;
  let slots = ln.lsp_ub_slot.(bar) and cols = ln.lsp_ub_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let v = ls.lbenv.(slots.(k)) and c = cols.(k) in
    for l = 0 to nl - 1 do
      bctx.(((bf + l) * ln.ctx_b) + c) <- v
    done
  done;
  let slots = ln.lsp_vi_slot.(bar) and cols = ln.lsp_vi_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ictx.(((bf + l) * ln.ctx_i) + c) <- ls.lienv.(s + l)
    done
  done;
  let slots = ln.lsp_vf_slot.(bar) and cols = ln.lsp_vf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      fctx.(((bf + l) * ln.ctx_f) + c) <- ls.lfenv.(s + l)
    done
  done;
  let slots = ln.lsp_vb_slot.(bar) and cols = ln.lsp_vb_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      bctx.(((bf + l) * ln.ctx_b) + c) <- ls.lbenv.(s + l)
    done
  done

let lane_spill_restore (ls : lane_state) (ln : clanes) ~(bar : int)
    ~(ictx : int array) ~(fctx : float array) ~(bctx : rv array) : unit =
  let bf = ls.base_flat and nl = ls.nl in
  let slots = ln.lsp_ui_slot.(bar) and cols = ln.lsp_ui_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    ls.lienv.(slots.(k)) <- ictx.((bf * ln.ctx_i) + cols.(k))
  done;
  let slots = ln.lsp_uf_slot.(bar) and cols = ln.lsp_uf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    ls.lfenv.(slots.(k)) <- fctx.((bf * ln.ctx_f) + cols.(k))
  done;
  let slots = ln.lsp_ub_slot.(bar) and cols = ln.lsp_ub_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    ls.lbenv.(slots.(k)) <- bctx.((bf * ln.ctx_b) + cols.(k))
  done;
  let slots = ln.lsp_vi_slot.(bar) and cols = ln.lsp_vi_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ls.lienv.(s + l) <- ictx.(((bf + l) * ln.ctx_i) + c)
    done
  done;
  let slots = ln.lsp_vf_slot.(bar) and cols = ln.lsp_vf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ls.lfenv.(s + l) <- fctx.(((bf + l) * ln.ctx_f) + c)
    done
  done;
  let slots = ln.lsp_vb_slot.(bar) and cols = ln.lsp_vb_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ls.lbenv.(s + l) <- bctx.(((bf + l) * ln.ctx_b) + c)
    done
  done

(** Re-aim the lane state at the batch of [nl] work-items starting at flat
    id [base] of the group currently held in [lctx.grp]. A sweep visits
    the group in flat order from 0: each batch must start where the last
    one ended, or at 0. The local id is carried forward from the previous
    batch instead of divided out of [base]. *)
let reset_lane_batch (ls : lane_state) ~(base : int) ~(nl : int) : unit =
  ls.base_flat <- base;
  ls.nl <- nl;
  let lsz = ls.lctx.lsz and grp = ls.lctx.grp and cur = ls.lcur in
  if base = 0 then Array.fill cur 0 3 0;
  let lid0 = ls.llid.(0) and lid1 = ls.llid.(1) and lid2 = ls.llid.(2) in
  let gid0 = ls.lgid.(0) and gid1 = ls.lgid.(1) and gid2 = ls.lgid.(2) in
  let g0 = grp.(0) * lsz.(0)
  and g1 = grp.(1) * lsz.(1)
  and g2 = grp.(2) * lsz.(2) in
  for l = 0 to nl - 1 do
    let lx = cur.(0) and ly = cur.(1) and lz = cur.(2) in
    lid0.(l) <- lx;
    lid1.(l) <- ly;
    lid2.(l) <- lz;
    gid0.(l) <- g0 + lx;
    gid1.(l) <- g1 + ly;
    gid2.(l) <- g2 + lz;
    if lx + 1 < lsz.(0) then cur.(0) <- lx + 1
    else begin
      cur.(0) <- 0;
      if ly + 1 < lsz.(1) then cur.(1) <- ly + 1
      else begin
        cur.(1) <- 0;
        cur.(2) <- lz + 1
      end
    end
  done

(* -- Public interface -------------------------------------------------------- *)

(* Default lane width: 8, dropping to 4 for kernels with many live slots
   (a wide batch of a slot-heavy kernel blows the L1-resident working set
   of the lane environments). *)
let lane_width_for (fn : func) : int =
  let n =
    fold_instrs
      (fun acc i ->
        match type_of_opcode i.op with
        | Void -> acc
        | _ -> acc + 1
        | exception Invalid_argument _ -> acc)
      0 fn
  in
  if n > 96 then 4 else 8

let prepare ?engine ?lane_width (fn : func) : compiled =
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  let lane_width =
    match lane_width with
    | Some w -> max 1 (min w 16)
    | None -> lane_width_for fn
  in
  let slots = Hashtbl.create 64 in
  let n = ref 0 in
  iter_instrs
    (fun i ->
      Hashtbl.replace slots i.iid !n;
      incr n)
    fn;
  let local_allocas =
    fold_instrs
      (fun acc i ->
        match i.op with
        | Alloca { aspace = Local; _ } -> i :: acc
        | _ -> acc)
      [] fn
    |> List.rev
  in
  let regions = Regions.form fn in
  let code =
    match engine with
    | Compiled -> compile_fn ~lane_width fn regions
    | Tree -> None
  in
  { fn; slots; n_slots = !n; local_allocas; regions; code }

(** Lane width the kernel was compiled for; 1 when no lane code exists
    (tree engine, or barriers that do not form regions). *)
let lane_width_of (c : compiled) : int =
  match c.code with Some ln -> ln.lwidth | None -> 1

(** Per-region-entry batch width as the lane compiler refined it: [true]
    runs W-wide batches, [false] batches of one. The static
    {!Regions.lane_entries} verdict, narrowed by any one-lane segment the
    compiler found. [None] when no lane code exists. *)
let lane_entry_flags (c : compiled) : bool array option =
  Option.map (fun ln -> Array.copy ln.lentry) c.code

(** Fresh tree-engine state of one work-item. *)
let make_state (c : compiled) ~(args : rv array) ~(ctx : wi_ctx)
    ~(stats : Trace.wg_stats) ~(local_bufs : (int, Memory.buffer) Hashtbl.t)
    ~(mem : Memory.t) : wi_state =
  {
    c;
    env = Array.make c.n_slots (RInt 0);
    args;
    ctx;
    stats;
    local_bufs;
    mem;
    private_offset = 0;
    san = None;
  }

(** Fresh lane-batched execution state for [ln], sharing the group
    context, argument row and stats sink with the runtime. *)
let make_lane_state (ln : clanes) ~(ctx : wi_ctx) ~(args : rv array)
    ~(stats : Trace.wg_stats) ~(local_bufs : (int, Memory.buffer) Hashtbl.t)
    ~(mem : Memory.t) : lane_state =
  let lw = ln.lwidth in
  {
    lw;
    nl = 0;
    base_flat = 0;
    lienv = Array.make (max 1 (ln.n_int * lw)) 0;
    lfenv = Array.make (max 1 (ln.n_float * lw)) 0.0;
    lbenv = Array.make (max 1 (ln.n_box * lw)) (RInt 0);
    luiscr = Array.make (max 1 ln.lscr_ui) 0;
    lufscr = Array.make (max 1 ln.lscr_uf) 0.0;
    lubscr = Array.make (max 1 ln.lscr_ub) (RInt 0);
    lviscr = Array.make (max 1 (ln.lscr_vi * lw)) 0;
    lvfscr = Array.make (max 1 (ln.lscr_vf * lw)) 0.0;
    lvbscr = Array.make (max 1 (ln.lscr_vb * lw)) (RInt 0);
    lpred = Array.make lw 0;
    lnthen = 0;
    llid = Array.init 3 (fun _ -> Array.make lw 0);
    lgid = Array.init 3 (fun _ -> Array.make lw 0);
    lcur = [| 0; 0; 0 |];
    lctx = ctx;
    largs = args;
    lstats = stats;
    llocal = local_bufs;
    lmem = mem;
    lpriv = 0;
    lsan = None;
  }

(** Re-aim a tree state at work-item [flat] of the group currently held
    in [st.ctx.grp]: recompute [lid]/[gid] in place and rewind the private
    bump allocator. *)
let reset_item (st : wi_state) ~(flat : int) : unit =
  let ctx = st.ctx in
  let lsz = ctx.lsz and grp = ctx.grp in
  let lx = flat mod lsz.(0)
  and ly = flat / lsz.(0) mod lsz.(1)
  and lz = flat / (lsz.(0) * lsz.(1)) in
  ctx.lid.(0) <- lx;
  ctx.lid.(1) <- ly;
  ctx.lid.(2) <- lz;
  ctx.gid.(0) <- (grp.(0) * lsz.(0)) + lx;
  ctx.gid.(1) <- (grp.(1) * lsz.(1)) + ly;
  ctx.gid.(2) <- (grp.(2) * lsz.(2)) + lz;
  ctx.flat_lid <- flat;
  st.private_offset <- 0
