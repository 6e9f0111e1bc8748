(** The work-item interpreter.

    Executes one kernel instance per work-item over the SSA IR, in one of
    two engines:

    - {b Compiled} (the default): {!prepare} translates every basic block,
      once per kernel, into an array of OCaml closures. Operand slots,
      argument indices, branch targets, builtin dispatch and phi moves are
      all resolved at compile time — the hot loop does no [Hashtbl]
      lookups and no [op] pattern matching, and scalar [int]/[float]
      results live unboxed in typed slot arrays.
    - {b Tree}: the original tree-walking reference engine, kept as the
      oracle for the differential test suite (and selectable with
      [GROVER_ENGINE=tree]).

    [barrier()] semantics come in two flavours:

    - {b fibers} (the fallback, and the only option for the tree engine):
      each work-item runs as an OCaml 5 fiber; hitting a barrier performs
      [Barrier_hit], the group scheduler parks the continuation, and
      resumes every work-item of the group once all of them have arrived;
    - {b work-group loops} (compiled engine, when {!Grover_ir.Regions}
      verifies every barrier is group-uniform): the kernel is compiled
      into barrier-split {e segments}; the runtime sweeps a plain
      [for]-loop over the group's work-items once per barrier-delimited
      region, spilling the SSA values that cross a region boundary into
      per-work-item context arrays. No effect handlers, no fiber stacks.

    Memory accesses stream into the group's {!Trace.wg_stats} for the
    performance simulator either way, in the same order. *)

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

(* Bad environment values warn (once per process, on stderr) instead of
   falling back silently — same spirit as the GROVER_FORCE_PATH error in
   Runtime.choose_path, but non-fatal: an env var is advisory, a typo in it
   should not abort a launch, only stop being invisible. *)
let env_warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let env_warn_mutex = Mutex.create ()

let warn_env (var : string) fmt =
  Format.kasprintf
    (fun msg ->
      Mutex.protect env_warn_mutex (fun () ->
          if not (Hashtbl.mem env_warned var) then begin
            Hashtbl.replace env_warned var ();
            prerr_endline
              (Grover_support.Diag.to_string
                 (Grover_support.Diag.warningf ~file:("$" ^ var)
                    ~code:"GRV-ENV" "%s" msg))
          end))
    fmt

let default_engine () =
  match Sys.getenv_opt "GROVER_ENGINE" with
  | Some ("tree" | "Tree" | "TREE") -> Tree
  | None | Some ("" | "closure" | "compiled") -> Compiled
  | Some s ->
      warn_env "GROVER_ENGINE"
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

   The compiled form assigns each value-producing instruction a slot in a
   typed environment: scalar integers in [ienv], scalar floats in [fenv]
   (both unboxed), everything else (vectors, pointers) in [benv]. Phi moves
   ride on CFG edges with evaluate-all-then-commit semantics, staged
   through the per-work-item scratch arrays. *)

(** Lane-batched execution state (the wg-vec path): one state executes a
    batch of [lw] consecutive work-items per closure invocation over
    struct-of-arrays slots. Every value-producing instruction keeps its
    scalar slot number [s]; the lane environments store slot [s] in the
    columns [s*lw .. s*lw+lw-1]. A value the uniformity analysis proved
    group-uniform is computed once per batch and lives in column 0 of its
    slot ([s*lw]); varying values occupy one column per lane. [nl] < [lw]
    only in the peeled tail batch of a group whose size is not a multiple
    of the lane width. *)
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
  lctx : wi_ctx;
      (** shares [grp]/[lsz]/[gsz]/[ngr] with the group runner; its
          [lid]/[gid] fields are unused here (lanes read [llid]/[lgid]) *)
  largs : rv array;
  lstats : Trace.wg_stats;
  mutable llocal : (int, Memory.buffer) Hashtbl.t;
      (** alloca iid -> group buffer, swapped with the queue like
          [wi_state.local_bufs] *)
  mutable lsan : Sanitize.t option;
}

type wi_state = {
  c : compiled;
  (* Tree engine: one boxed slot per instruction. *)
  env : rv array;
  (* Compiled engine: typed slot arrays + phi-move scratch. *)
  ienv : int array;
  fenv : float array;
  benv : rv array;
  iscr : int array;
  fscr : float array;
  bscr : rv array;
  args : rv array;
  ctx : wi_ctx;
  stats : Trace.wg_stats;
  mutable local_bufs : (int, Memory.buffer) Hashtbl.t;
      (** alloca iid -> group buffer; swapped by the runtime when the
          executing queue changes *)
  mem : Memory.t;
  mutable queue : int;
  mutable private_offset : int;  (** bump offset in the private address region *)
  mutable san : Sanitize.t option;
      (** installed by [Runtime.launch ~sanitizer]; [None] on normal runs *)
}

and compiled = {
  fn : func;
  slots : (int, int) Hashtbl.t;  (** instruction id -> tree environment slot *)
  n_slots : int;
  local_allocas : instr list;  (** local arrays, allocated once per group *)
  has_barrier : bool;
      (** statically true iff the kernel contains a [Barrier] instruction;
          barrier-free kernels never need the fiber scheduler *)
  regions : Regions.verdict;
      (** barrier-region formation result, for path reporting; the
          compiled spill metadata derived from it lives in [code.wg] *)
  code : cfunc option;  (** [Some] iff the kernel was closure-compiled *)
}

and cfunc = {
  csegs : cseg array;
      (** basic blocks split at barriers; index 0 is the kernel entry,
          each block's segments are contiguous in block order *)
  n_int : int;
  n_float : int;
  n_box : int;
  scr_int : int;  (** max int phi moves on any edge *)
  scr_float : int;
  scr_box : int;
  wg : cwg option;
      (** region-execution metadata; [Some] iff {!Regions.form} verified
          every barrier group-uniform (trivially for barrier-free code) *)
  lanes : clanes option;
      (** lane-batched compilation (the wg-vec path); [Some] iff [wg] is
          [Some] and at least one region entry is lane-capable *)
}

and cseg = {
  body : (wi_state -> unit) array;
  cterm : cterm;
  (* Op counts are only observable at group granularity, so the
     statically-known per-instruction costs are summed once per segment at
     compile time and bumped in one go per segment execution. *)
  b_int : int;
  b_float : int;
  b_special : int;
}

and cterm =
  | Tbr of edge
  | Tcond of (wi_state -> int) * edge * edge
  | Tret
  | Tbarrier of { bar : int; next : int }
      (** barrier [bar] (dense {!Regions} index); [next] is the
          continuation segment right after it. The fiber executor performs
          [Barrier_hit] and continues at [next]; the region executor
          returns [bar] to the group sweep instead. *)
  | Ttrap of string

(** Per-work-item spill plan of the region executor. Every SSA value live
    across some barrier owns one column in a per-kind context matrix
    ([n_items] rows of width [ctx_*]); per barrier, the (env slot, context
    column) pairs to copy are precompiled into parallel arrays. *)
and cwg = {
  bar_entry : int array;  (** barrier index -> continuation segment *)
  sp_i_env : int array array;  (** per barrier: int env slots to spill *)
  sp_i_ctx : int array array;  (** per barrier: matching context columns *)
  sp_f_env : int array array;
  sp_f_ctx : int array array;
  sp_b_env : int array array;
  sp_b_ctx : int array array;
  ctx_i : int;  (** context row width per kind *)
  ctx_f : int;
  ctx_b : int;
}

and edge = {
  e_dst : int;  (** dense index of the successor block's entry segment *)
  im_dst : int array;  (** phi destination slots, by kind *)
  im_src : (wi_state -> int) array;
  fm_dst : int array;
  fm_src : (wi_state -> float) array;
  bm_dst : int array;
  bm_src : (wi_state -> rv) array;
}

(** Lane-batched compilation of the same segment layout (the wg-vec
    path). [lsegs] parallels [csegs]; a segment the lane compiler could
    not batch (divergent branch condition, private alloca) is [None] and
    every region entry reaching it is marked not lane-capable in
    [lentry] — those regions run the scalar one-work-item sweep of the
    wg-loop path within the same launch. Op costs are read from the
    parallel {!cseg} and bumped once per batch, multiplied by the active
    lane count, so trace totals are bit-identical to the scalar paths. *)
and clanes = {
  lwidth : int;  (** lane width W the kernel was compiled for *)
  lsegs : lseg option array;
  lentry : bool array;
      (** per region entry (0 = kernel entry, [b+1] = barrier [b]'s
          continuation): sweep this region in lane batches? *)
  lscr_ui : int;  (** phi staging widths: uniform moves (scalars)... *)
  lscr_uf : int;
  lscr_ub : int;
  lscr_vi : int;  (** ...and varying moves (x [lwidth] lane columns) *)
  lscr_vf : int;
  lscr_vb : int;
  (* Lane spill plans, per barrier. Uniform values replicate slot column 0
     into every active work-item's context row; varying values copy one
     lane column per row. Slot entries are pre-multiplied bases
     ([slot * lwidth]); context columns are shared with {!cwg} so lane and
     scalar regions exchange live values through the same matrices. *)
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

and lseg = { lbody : (lane_state -> unit) array; lterm : lterm }

and lterm =
  | LTbr of ledge
  | LTcond of (lane_state -> int) * ledge * ledge
      (** the condition is group-uniform by construction — one evaluation
          decides the branch for the whole batch *)
  | LTret
  | LTbarrier of { lbar : int; lnext : int }
  | LTtrap of string

and ledge = {
  le_dst : int;
  (* uniform phi moves: one value each *)
  lu_im_dst : int array;  (** destination slot bases ([slot * lwidth]) *)
  lu_im_src : (lane_state -> int) array;
  lu_fm_dst : int array;
  lu_fm_src : (lane_state -> float) array;
  lu_bm_dst : int array;
  lu_bm_src : (lane_state -> rv) array;
  (* varying phi moves: one value per active lane *)
  lv_im_dst : int array;
  lv_im_src : (lane_state -> int -> int) array;
  lv_fm_dst : int array;
  lv_fm_src : (lane_state -> int -> float) array;
  lv_bm_dst : int array;
  lv_bm_src : (lane_state -> int -> rv) array;
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

let alloc_private (st : wi_state) elem count : Memory.buffer =
  (* Private arrays live in a per-queue private address region; the data
     array itself is fresh per work-item. *)
  let base = 0x0000_1000 + (st.queue * 0x0010_0000) + st.private_offset in
  st.private_offset <- st.private_offset + (count * ty_size_bytes elem);
  Memory.alloc_at st.mem ~space:Private ~base_addr:base elem count

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

(** The pure (state-free) builtin calls — everything except the work-item
    geometry queries. Shared by the tree engine and the lane executor's
    generic per-lane fallback. *)
and data_call callee (args : rv list) : rv =
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
      | [ RVecF a; RVecF b; RVecF c ] ->
          RVecF (Array.init (Array.length a) (fun i -> (a.(i) *. b.(i)) +. c.(i)))
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
      | [ RVecF a; RVecF b ] -> RVecF (lanes_map2 (math2 callee) a b)
      | _ -> trap "%s argument mismatch" callee)
  | _ -> (
      (* Remaining builtins are unary float math. *)
      match args with
      | [ RFloat x ] -> RFloat (math1 callee x)
      | [ RVecF a ] -> RVecF (Array.map (math1 callee) a)
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
      set (RBuf (alloc_private st elem count))
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

type kind = KInt of int | KFloat of int | KBox of int

(* Raised while lane-compiling a segment that cannot be batched (private
   alloca, divergent branch condition outside a classified diamond); the
   segment stays [None] in [clanes.lsegs] and every region entry reaching
   it runs scalar. *)
exception Unbatchable

(* Static op cost of one instruction, (int, float, special) — mirrors the
   per-instruction bumps of the tree engine exactly. Shared between the
   scalar segment compiler (summed per segment, bumped per work-item) and
   the lane compiler (masked diamond arms bump their sum once per batch,
   multiplied by the arm's active-lane count). *)
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

(* Lane-batched compilation: the same segment layout as the scalar closure
   compiler, but each closure advances a whole batch of [lw] work-items
   over struct-of-arrays columns. Uniform values (per the {!Divergence}
   fixpoint) are computed once per batch into column 0 of their slot;
   varying values loop over the active lanes. *)
let compile_lanes ~(lw : int) ~(kinds : (int, kind) Hashtbl.t)
    ~(bidx : (int, int) Hashtbl.t) ~(bar_index : (int, int) Hashtbl.t)
    ~(bar_entry : int array)
    ~(seg_descs : (block * instr list * instr option) array)
    ~(info : Regions.info) ~(ctx_col : (int, int) Hashtbl.t) : clanes =
  let dv = info.Regions.div in
  let kind_of (i : instr) = Hashtbl.find_opt kinds i.iid in
  let is_int_ty = function I1 | I8 | I16 | I32 | I64 -> true | _ -> false in

  (* Uniform operand getters: one value per batch, read from the slot's
     base column. The divergence fixpoint guarantees every operand of a
     uniform instruction is itself uniform, so reading column 0 is sound. *)
  let lu_iget (v : value) : lane_state -> int =
    match v with
    | Cint (t, n) ->
        let k = sext_of t n in
        fun _ -> k
    | Cfloat f -> fun _ -> trap "expected int, got float %g" f
    | Arg a ->
        let j = a.a_index in
        fun ls -> as_int ls.largs.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KInt s) ->
            let b = s * lw in
            fun ls -> ls.lienv.(b)
        | Some (KFloat s) ->
            let b = s * lw in
            fun ls -> trap "expected int, got float %g" ls.lfenv.(b)
        | Some (KBox s) ->
            let b = s * lw in
            fun ls -> as_int ls.lbenv.(b)
        | None -> fun _ -> trap "use of a void value")
  in
  let lu_fget (v : value) : lane_state -> float =
    match v with
    | Cfloat f -> fun _ -> f
    | Cint (_, n) -> fun _ -> trap "expected float, got int %d" n
    | Arg a ->
        let j = a.a_index in
        fun ls -> as_float ls.largs.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KFloat s) ->
            let b = s * lw in
            fun ls -> ls.lfenv.(b)
        | Some (KInt s) ->
            let b = s * lw in
            fun ls -> trap "expected float, got int %d" ls.lienv.(b)
        | Some (KBox s) ->
            let b = s * lw in
            fun ls -> as_float ls.lbenv.(b)
        | None -> fun _ -> trap "use of a void value")
  in
  let lu_vget (v : value) : lane_state -> rv =
    match v with
    | Cint (t, n) ->
        let r = RInt (sext_of t n) in
        fun _ -> r
    | Cfloat f ->
        let r = RFloat f in
        fun _ -> r
    | Arg a ->
        let j = a.a_index in
        fun ls -> ls.largs.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KInt s) ->
            let b = s * lw in
            fun ls -> RInt ls.lienv.(b)
        | Some (KFloat s) ->
            let b = s * lw in
            fun ls -> RFloat ls.lfenv.(b)
        | Some (KBox s) ->
            let b = s * lw in
            fun ls -> ls.lbenv.(b)
        | None -> fun _ -> trap "use of a void value")
  in

  (* Varying operand getters: one value per lane. A uniform operand of a
     varying instruction reads its base column whatever the lane. *)
  let varying (v : value) =
    match v with Vinstr i -> Divergence.iid_divergent dv i.iid | _ -> false
  in
  let lv_iget (v : value) : lane_state -> int -> int =
    match v with
    | Cint (t, n) ->
        let k = sext_of t n in
        fun _ _ -> k
    | Cfloat f -> fun _ _ -> trap "expected int, got float %g" f
    | Arg a ->
        let j = a.a_index in
        fun ls _ -> as_int ls.largs.(j)
    | Vinstr i -> (
        let vr = varying v in
        match kind_of i with
        | Some (KInt s) ->
            let b = s * lw in
            if vr then fun ls l -> ls.lienv.(b + l)
            else fun ls _ -> ls.lienv.(b)
        | Some (KFloat s) ->
            let b = s * lw in
            fun ls _ -> trap "expected int, got float %g" ls.lfenv.(b)
        | Some (KBox s) ->
            let b = s * lw in
            if vr then fun ls l -> as_int ls.lbenv.(b + l)
            else fun ls _ -> as_int ls.lbenv.(b)
        | None -> fun _ _ -> trap "use of a void value")
  in
  let lv_fget (v : value) : lane_state -> int -> float =
    match v with
    | Cfloat f -> fun _ _ -> f
    | Cint (_, n) -> fun _ _ -> trap "expected float, got int %d" n
    | Arg a ->
        let j = a.a_index in
        fun ls _ -> as_float ls.largs.(j)
    | Vinstr i -> (
        let vr = varying v in
        match kind_of i with
        | Some (KFloat s) ->
            let b = s * lw in
            if vr then fun ls l -> ls.lfenv.(b + l)
            else fun ls _ -> ls.lfenv.(b)
        | Some (KInt s) ->
            let b = s * lw in
            fun ls _ -> trap "expected float, got int %d" ls.lienv.(b)
        | Some (KBox s) ->
            let b = s * lw in
            if vr then fun ls l -> as_float ls.lbenv.(b + l)
            else fun ls _ -> as_float ls.lbenv.(b)
        | None -> fun _ _ -> trap "use of a void value")
  in
  let lv_bufget (v : value) : lane_state -> int -> Memory.buffer =
    match v with
    | Arg a ->
        let j = a.a_index in
        fun ls _ -> as_buf ls.largs.(j)
    | Vinstr i -> (
        let vr = varying v in
        match kind_of i with
        | Some (KBox s) ->
            let b = s * lw in
            if vr then fun ls l -> as_buf ls.lbenv.(b + l)
            else fun ls _ -> as_buf ls.lbenv.(b)
        | _ -> fun _ _ -> trap "expected a pointer")
    | _ -> fun _ _ -> trap "expected a pointer"
  in
  let lv_vget (v : value) : lane_state -> int -> rv =
    match v with
    | Cint (t, n) ->
        let r = RInt (sext_of t n) in
        fun _ _ -> r
    | Cfloat f ->
        let r = RFloat f in
        fun _ _ -> r
    | Arg a ->
        let j = a.a_index in
        fun ls _ -> ls.largs.(j)
    | Vinstr i -> (
        let vr = varying v in
        match kind_of i with
        | Some (KInt s) ->
            let b = s * lw in
            if vr then fun ls l -> RInt ls.lienv.(b + l)
            else fun ls _ -> RInt ls.lienv.(b)
        | Some (KFloat s) ->
            let b = s * lw in
            if vr then fun ls l -> RFloat ls.lfenv.(b + l)
            else fun ls _ -> RFloat ls.lfenv.(b)
        | Some (KBox s) ->
            let b = s * lw in
            if vr then fun ls l -> ls.lbenv.(b + l)
            else fun ls _ -> ls.lbenv.(b)
        | None -> fun _ _ -> trap "use of a void value")
  in

  (* Operand classification for the specialized hot loops below. An
     operand is either a varying slot read at a compile-time base offset
     (the common case in address arithmetic), or hoistable — the same
     value for every lane of a batch (constants, kernel arguments,
     uniform slots), read once at batch entry instead of per lane.
     [None] from both classifiers sends the instruction to the generic
     closure-per-operand arm. *)
  let ivar_slot (v : value) : int option =
    match v with
    | Vinstr i when varying v -> (
        match kind_of i with Some (KInt s) -> Some (s * lw) | _ -> None)
    | _ -> None
  in
  let ihoist (v : value) : (lane_state -> int) option =
    if varying v then None
    else
      match v with
      | Cint (t, n) ->
          let k = sext_of t n in
          Some (fun _ -> k)
      | Arg a ->
          let j = a.a_index in
          Some (fun ls -> as_int ls.largs.(j))
      | Vinstr i -> (
          match kind_of i with
          | Some (KInt s) ->
              let b = s * lw in
              Some (fun ls -> ls.lienv.(b))
          | Some (KBox s) ->
              let b = s * lw in
              Some (fun ls -> as_int ls.lbenv.(b))
          | _ -> None)
      | Cfloat _ -> None
  in
  let fvar_slot (v : value) : int option =
    match v with
    | Vinstr i when varying v -> (
        match kind_of i with Some (KFloat s) -> Some (s * lw) | _ -> None)
    | _ -> None
  in
  let fhoist (v : value) : (lane_state -> float) option =
    if varying v then None
    else
      match v with
      | Cfloat f -> Some (fun _ -> f)
      | Arg a ->
          let j = a.a_index in
          Some (fun ls -> as_float ls.largs.(j))
      | Vinstr i -> (
          match kind_of i with
          | Some (KFloat s) ->
              let b = s * lw in
              Some (fun ls -> ls.lfenv.(b))
          | Some (KBox s) ->
              let b = s * lw in
              Some (fun ls -> as_float ls.lbenv.(b))
          | _ -> None)
      | Cint _ -> None
  in
  let bvar_slot (v : value) : int option =
    match v with
    | Vinstr i when varying v -> (
        match kind_of i with Some (KBox s) -> Some (s * lw) | _ -> None)
    | _ -> None
  in
  let buf_hoist (v : value) : (lane_state -> Memory.buffer) option =
    if varying v then None
    else
      match v with
      | Arg a ->
          let j = a.a_index in
          Some (fun ls -> as_buf ls.largs.(j))
      | Vinstr i -> (
          match kind_of i with
          | Some (KBox s) ->
              let b = s * lw in
              Some (fun ls -> as_buf ls.lbenv.(b))
          | _ -> None)
      | _ -> None
  in

  (* Destination helpers: the slot base ([slot * lw]) is resolved at
     compile time; uniform writers touch the base column only. *)
  let lwith_int_dst (i : instr) (mk : int -> lane_state -> unit) =
    match kind_of i with
    | Some (KInt s) -> mk (s * lw)
    | _ -> fun _ -> trap "slot kind mismatch (int) at instruction %d" i.iid
  in
  let lwith_float_dst (i : instr) (mk : int -> lane_state -> unit) =
    match kind_of i with
    | Some (KFloat s) -> mk (s * lw)
    | _ -> fun _ -> trap "slot kind mismatch (float) at instruction %d" i.iid
  in
  let lwith_box_dst (i : instr) (mk : int -> lane_state -> unit) =
    match kind_of i with
    | Some (KBox s) -> mk (s * lw)
    | _ ->
        fun _ -> trap "slot kind mismatch (aggregate) at instruction %d" i.iid
  in
  let lset_rv (i : instr) : lane_state -> int -> rv -> unit =
    match kind_of i with
    | Some (KInt s) ->
        let b = s * lw in
        fun ls l v -> ls.lienv.(b + l) <- as_int v
    | Some (KFloat s) ->
        let b = s * lw in
        fun ls l v -> ls.lfenv.(b + l) <- as_float v
    | Some (KBox s) ->
        let b = s * lw in
        fun ls l v -> ls.lbenv.(b + l) <- v
    | None ->
        fun _ _ _ -> trap "slot kind mismatch at instruction %d" i.iid
  in
  let luset_rv (i : instr) : lane_state -> rv -> unit =
    match kind_of i with
    | Some (KInt s) ->
        let b = s * lw in
        fun ls v -> ls.lienv.(b) <- as_int v
    | Some (KFloat s) ->
        let b = s * lw in
        fun ls v -> ls.lfenv.(b) <- as_float v
    | Some (KBox s) ->
        let b = s * lw in
        fun ls v -> ls.lbenv.(b) <- v
    | None ->
        fun _ _ -> trap "slot kind mismatch at instruction %d" i.iid
  in

  (* A group-uniform call: geometry queries read the shared context;
     everything else evaluates once per batch through the shared builtin
     interpreter. [get_local_id]/[get_global_id] are divergence seeds, so
     the analysis can never classify them uniform. *)
  let lcompile_ucall (i : instr) callee (args : value list) :
      lane_state -> unit =
    let geom (sel : wi_ctx -> int array) =
      match args with
      | [ Cint (_, d) ] when d >= 0 && d < 3 ->
          lwith_int_dst i (fun dst ls -> ls.lienv.(dst) <- (sel ls.lctx).(d))
      | [ dvv ] ->
          let g = lu_iget dvv in
          lwith_int_dst i (fun dst ls ->
              let d = g ls in
              if d < 0 || d >= 3 then trap "dimension out of range";
              ls.lienv.(dst) <- (sel ls.lctx).(d))
      | _ -> fun _ -> trap "%s expects a dimension" callee
    in
    match callee with
    | "get_local_id" | "get_global_id" ->
        fun _ -> trap "%s classified uniform" callee
    | "get_group_id" -> geom (fun c -> c.grp)
    | "get_local_size" -> geom (fun c -> c.lsz)
    | "get_global_size" -> geom (fun c -> c.gsz)
    | "get_num_groups" -> geom (fun c -> c.ngr)
    | "get_global_offset" ->
        lwith_int_dst i (fun dst ls -> ls.lienv.(dst) <- 0)
    | "get_work_dim" -> lwith_int_dst i (fun dst ls -> ls.lienv.(dst) <- 3)
    | _ ->
        let gargs = List.map lu_vget args in
        let set = luset_rv i in
        fun ls -> set ls (data_call callee (List.map (fun g -> g ls) gargs))
  in

  (* A uniform instruction: computed once per batch into the base column,
     exactly mirroring the scalar closure compiler's arms. *)
  let lcompile_uni (i : instr) : lane_state -> unit =
    match i.op with
    | Binop (op, a, b) -> (
        match type_of a with
        | (I1 | I8 | I16 | I32 | I64) as t ->
            let ga = lu_iget a and gb = lu_iget b and f = int_binop_fn t op in
            lwith_int_dst i (fun dst ls -> ls.lienv.(dst) <- f (ga ls) (gb ls))
        | F32 ->
            let ga = lu_fget a and gb = lu_fget b and f = float_binop_fn op in
            lwith_float_dst i (fun dst ls ->
                ls.lfenv.(dst) <- f (ga ls) (gb ls))
        | Vec (F32, _) ->
            let ga = lu_vget a and gb = lu_vget b and f = float_binop_fn op in
            lwith_box_dst i (fun dst ls ->
                match (ga ls, gb ls) with
                | RVecF x, RVecF y -> ls.lbenv.(dst) <- RVecF (lanes_map2 f x y)
                | _ -> trap "binop operand mismatch")
        | Vec (_, _) ->
            let ga = lu_vget a and gb = lu_vget b and f = int_binop_fn I32 op in
            lwith_box_dst i (fun dst ls ->
                match (ga ls, gb ls) with
                | RVecI x, RVecI y -> ls.lbenv.(dst) <- RVecI (lanes_map2 f x y)
                | _ -> trap "binop operand mismatch")
        | _ -> fun _ -> trap "binop operand mismatch")
    | Icmp (c, a, b) ->
        let ga = lu_iget a and gb = lu_iget b and f = icmp_fn (type_of a) c in
        lwith_int_dst i (fun dst ls ->
            ls.lienv.(dst) <- (if f (ga ls) (gb ls) then 1 else 0))
    | Fcmp (c, a, b) ->
        let ga = lu_fget a and gb = lu_fget b and f = fcmp_fn c in
        lwith_int_dst i (fun dst ls ->
            ls.lienv.(dst) <- (if f (ga ls) (gb ls) then 1 else 0))
    | Select (c, a, b) -> (
        let gc = lu_iget c in
        match type_of a with
        | I1 | I8 | I16 | I32 | I64 ->
            let ga = lu_iget a and gb = lu_iget b in
            lwith_int_dst i (fun dst ls ->
                ls.lienv.(dst) <- (if gc ls <> 0 then ga ls else gb ls))
        | F32 ->
            let ga = lu_fget a and gb = lu_fget b in
            lwith_float_dst i (fun dst ls ->
                ls.lfenv.(dst) <- (if gc ls <> 0 then ga ls else gb ls))
        | _ ->
            let ga = lu_vget a and gb = lu_vget b in
            lwith_box_dst i (fun dst ls ->
                ls.lbenv.(dst) <- (if gc ls <> 0 then ga ls else gb ls)))
    | Cast (k, v, t) -> (
        let src_t = type_of v in
        match (k, src_t) with
        | (Sext | Bitcast), (I1 | I8 | I16 | I32 | I64) ->
            let g = lu_iget v in
            lwith_int_dst i (fun dst ls ->
                ls.lienv.(dst) <- sext_of src_t (g ls))
        | Zext, (I1 | I8 | I16 | I32 | I64) ->
            let g = lu_iget v and m = mask_of src_t in
            lwith_int_dst i (fun dst ls -> ls.lienv.(dst) <- g ls land m)
        | Trunc, (I1 | I8 | I16 | I32 | I64) ->
            let g = lu_iget v in
            lwith_int_dst i (fun dst ls -> ls.lienv.(dst) <- sext_of t (g ls))
        | Si_to_fp, (I1 | I8 | I16 | I32 | I64) ->
            let g = lu_iget v in
            lwith_float_dst i (fun dst ls ->
                ls.lfenv.(dst) <- float_of_int (g ls))
        | Ui_to_fp, (I1 | I8 | I16 | I32 | I64) ->
            let g = lu_iget v and m = mask_of src_t in
            lwith_float_dst i (fun dst ls ->
                ls.lfenv.(dst) <- float_of_int (g ls land m))
        | Fp_to_si, F32 ->
            let g = lu_fget v in
            lwith_int_dst i (fun dst ls ->
                ls.lienv.(dst) <- int_of_float (g ls))
        | Bitcast, F32 ->
            let g = lu_fget v in
            lwith_float_dst i (fun dst ls -> ls.lfenv.(dst) <- g ls)
        | Bitcast, _ ->
            let g = lu_vget v in
            lwith_box_dst i (fun dst ls -> ls.lbenv.(dst) <- g ls)
        | _ -> fun _ -> trap "unsupported cast")
    | Call { callee; args; _ } -> lcompile_ucall i callee args
    | Alloca { aspace = Local; _ } ->
        let iid = i.iid in
        lwith_box_dst i (fun dst ls ->
            match Hashtbl.find_opt ls.llocal iid with
            | Some b -> ls.lbenv.(dst) <- RBuf b
            | None -> trap "local alloca without a group buffer")
    | Load _ ->
        (* Loads are divergence seeds — never classified uniform. *)
        fun _ -> trap "load classified uniform"
    | Extract (v, lane) -> (
        let gl = lu_iget lane in
        match type_of v with
        | Vec (F32, _) ->
            let gv = lu_vget v in
            lwith_float_dst i (fun dst ls ->
                match gv ls with
                | RVecF a -> ls.lfenv.(dst) <- a.(gl ls)
                | _ -> trap "extract from non-vector")
        | Vec (_, _) ->
            let gv = lu_vget v in
            lwith_int_dst i (fun dst ls ->
                match gv ls with
                | RVecI a -> ls.lienv.(dst) <- a.(gl ls)
                | _ -> trap "extract from non-vector")
        | _ -> fun _ -> trap "extract from non-vector")
    | Insert (v, lane, s) ->
        let gv = lu_vget v and gl = lu_iget lane and gs = lu_vget s in
        lwith_box_dst i (fun dst ls ->
            let l = gl ls in
            match (gv ls, gs ls) with
            | RVecF a, RFloat x ->
                let a = Array.copy a in
                a.(l) <- x;
                ls.lbenv.(dst) <- RVecF a
            | RVecI a, RInt x ->
                let a = Array.copy a in
                a.(l) <- x;
                ls.lbenv.(dst) <- RVecI a
            | _ -> trap "insert mismatch")
    | Vecbuild (t, vs) -> (
        match t with
        | Vec (F32, _) ->
            let gs = Array.of_list (List.map lu_fget vs) in
            lwith_box_dst i (fun dst ls ->
                ls.lbenv.(dst) <- RVecF (Array.map (fun g -> g ls) gs))
        | Vec (_, _) ->
            let gs = Array.of_list (List.map lu_iget vs) in
            lwith_box_dst i (fun dst ls ->
                ls.lbenv.(dst) <- RVecI (Array.map (fun g -> g ls) gs))
        | _ -> fun _ -> trap "vecbuild of non-vector")
    | Store _ | Alloca _ | Phi _ | Barrier _ | Br _ | Cond_br _ | Ret ->
        fun _ -> trap "non-value instruction compiled as uniform"
  in

  (* A varying call: work-item index queries read the per-lane id rows;
     the hot F32 mad/fma gets a fused arm; everything else goes through
     the per-lane generic fallback. *)
  let lcompile_vcall (i : instr) callee (args : value list) :
      lane_state -> unit =
    let arg_tys = List.map type_of args in
    let lane_query (rows : lane_state -> int array array) =
      match args with
      | [ Cint (_, d) ] when d >= 0 && d < 3 ->
          lwith_int_dst i (fun dst ls ->
              let r = (rows ls).(d) in
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- r.(l)
              done)
      | [ dvv ] ->
          let g = lv_iget dvv in
          lwith_int_dst i (fun dst ls ->
              for l = 0 to ls.nl - 1 do
                let d = g ls l in
                if d < 0 || d >= 3 then trap "dimension out of range";
                ls.lienv.(dst + l) <- (rows ls).(d).(l)
              done)
      | _ -> fun _ -> trap "%s expects a dimension" callee
    in
    let geom_var (sel : wi_ctx -> int array) =
      (* geometry query whose dimension operand is divergent *)
      match args with
      | [ dvv ] ->
          let g = lv_iget dvv in
          lwith_int_dst i (fun dst ls ->
              for l = 0 to ls.nl - 1 do
                let d = g ls l in
                if d < 0 || d >= 3 then trap "dimension out of range";
                ls.lienv.(dst + l) <- (sel ls.lctx).(d)
              done)
      | _ -> fun _ -> trap "%s expects a dimension" callee
    in
    match callee with
    | "get_local_id" -> lane_query (fun ls -> ls.llid)
    | "get_global_id" -> lane_query (fun ls -> ls.lgid)
    | "get_group_id" -> geom_var (fun c -> c.grp)
    | "get_local_size" -> geom_var (fun c -> c.lsz)
    | "get_global_size" -> geom_var (fun c -> c.gsz)
    | "get_num_groups" -> geom_var (fun c -> c.ngr)
    | "get_global_offset" ->
        lwith_int_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lienv.(dst + l) <- 0
            done)
    | "get_work_dim" ->
        lwith_int_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              ls.lienv.(dst + l) <- 3
            done)
    | "mad" | "fma" -> (
        match (args, arg_tys) with
        | [ a; b; c ], [ F32; F32; F32 ] ->
            let ga = lv_fget a and gb = lv_fget b and gc = lv_fget c in
            lwith_float_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lfenv.(dst + l) <- (ga ls l *. gb ls l) +. gc ls l
                done)
        | [ a; b; c ], [ ta; tb; tc ]
          when is_int_ty ta && is_int_ty tb && is_int_ty tc ->
            let ga = lv_iget a and gb = lv_iget b and gc = lv_iget c in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- (ga ls l * gb ls l) + gc ls l
                done)
        | _ ->
            let gargs = List.map lv_vget args in
            let set = lset_rv i in
            fun ls ->
              for l = 0 to ls.nl - 1 do
                set ls l
                  (data_call callee (List.map (fun g -> g ls l) gargs))
              done)
    | _ ->
        let gargs = List.map lv_vget args in
        let set = lset_rv i in
        fun ls ->
          for l = 0 to ls.nl - 1 do
            set ls l (data_call callee (List.map (fun g -> g ls l) gargs))
          done
  in

  (* A varying instruction: one result column per active lane. The int
     and float binop arms are the innermost ops of every address
     computation, so their common operand shapes (slot x slot, slot x
     hoistable) get dedicated loops with direct array reads — and the
     wrap-free operators are inlined rather than called through the
     resolved closure. *)
  let lcompile_var (i : instr) : lane_state -> unit =
    match i.op with
    | Binop (op, a, b) -> (
        match type_of a with
        | (I1 | I8 | I16 | I32 | I64) as t -> (
            let f = int_binop_fn t op in
            let generic () =
              let ga = lv_iget a and gb = lv_iget b in
              lwith_int_dst i (fun dst ls ->
                  for l = 0 to ls.nl - 1 do
                    ls.lienv.(dst + l) <- f (ga ls l) (gb ls l)
                  done)
            in
            match (ivar_slot a, ivar_slot b) with
            | Some ao, Some bo -> (
                match op with
                | Add ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) + ie.(bo + l)
                        done)
                | Mul ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) * ie.(bo + l)
                        done)
                | Sub ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) - ie.(bo + l)
                        done)
                | And ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) land ie.(bo + l)
                        done)
                | Or ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) lor ie.(bo + l)
                        done)
                | Xor ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) lxor ie.(bo + l)
                        done)
                | Shl ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) lsl (ie.(bo + l) land 63)
                        done)
                | Ashr ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- ie.(ao + l) asr (ie.(bo + l) land 63)
                        done)
                | Lshr ->
                    let m = mask_of t in
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <-
                            (ie.(ao + l) land m) lsr (ie.(bo + l) land 63)
                        done)
                | _ ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- f ie.(ao + l) ie.(bo + l)
                        done))
            | Some ao, None -> (
                match ihoist b with
                | None -> generic ()
                | Some hb -> (
                    match op with
                    | Add ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) + y
                            done)
                    | Mul ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) * y
                            done)
                    | Sub ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) - y
                            done)
                    | And ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) land y
                            done)
                    | Or ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) lor y
                            done)
                    | Xor ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) lxor y
                            done)
                    | Shl ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and sh = hb ls land 63 in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) lsl sh
                            done)
                    | Ashr ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and sh = hb ls land 63 in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- ie.(ao + l) asr sh
                            done)
                    | Lshr ->
                        let m = mask_of t in
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and sh = hb ls land 63 in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- (ie.(ao + l) land m) lsr sh
                            done)
                    | _ ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and y = hb ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- f ie.(ao + l) y
                            done)))
            | None, Some bo -> (
                match ihoist a with
                | None -> generic ()
                | Some ha -> (
                    match op with
                    | Add ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x + ie.(bo + l)
                            done)
                    | Mul ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x * ie.(bo + l)
                            done)
                    | Sub ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x - ie.(bo + l)
                            done)
                    | And ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x land ie.(bo + l)
                            done)
                    | Or ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x lor ie.(bo + l)
                            done)
                    | Xor ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x lxor ie.(bo + l)
                            done)
                    | Shl ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x lsl (ie.(bo + l) land 63)
                            done)
                    | Ashr ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x asr (ie.(bo + l) land 63)
                            done)
                    | Lshr ->
                        let m = mask_of t in
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv in
                            let x = ha ls land m in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- x lsr (ie.(bo + l) land 63)
                            done)
                    | _ ->
                        lwith_int_dst i (fun dst ls ->
                            let ie = ls.lienv and x = ha ls in
                            for l = 0 to ls.nl - 1 do
                              ie.(dst + l) <- f x ie.(bo + l)
                            done)))
            | None, None -> generic ())
        | F32 -> (
            let f = float_binop_fn op in
            let generic () =
              let ga = lv_fget a and gb = lv_fget b in
              lwith_float_dst i (fun dst ls ->
                  for l = 0 to ls.nl - 1 do
                    ls.lfenv.(dst + l) <- f (ga ls l) (gb ls l)
                  done)
            in
            match (fvar_slot a, fvar_slot b) with
            | Some ao, Some bo -> (
                match op with
                | Fadd ->
                    lwith_float_dst i (fun dst ls ->
                        let fe = ls.lfenv in
                        for l = 0 to ls.nl - 1 do
                          fe.(dst + l) <- fe.(ao + l) +. fe.(bo + l)
                        done)
                | Fmul ->
                    lwith_float_dst i (fun dst ls ->
                        let fe = ls.lfenv in
                        for l = 0 to ls.nl - 1 do
                          fe.(dst + l) <- fe.(ao + l) *. fe.(bo + l)
                        done)
                | _ ->
                    lwith_float_dst i (fun dst ls ->
                        let fe = ls.lfenv in
                        for l = 0 to ls.nl - 1 do
                          fe.(dst + l) <- f fe.(ao + l) fe.(bo + l)
                        done))
            | Some ao, None -> (
                match fhoist b with
                | None -> generic ()
                | Some hb ->
                    lwith_float_dst i (fun dst ls ->
                        let fe = ls.lfenv and y = hb ls in
                        for l = 0 to ls.nl - 1 do
                          fe.(dst + l) <- f fe.(ao + l) y
                        done))
            | None, Some bo -> (
                match fhoist a with
                | None -> generic ()
                | Some ha ->
                    lwith_float_dst i (fun dst ls ->
                        let fe = ls.lfenv and x = ha ls in
                        for l = 0 to ls.nl - 1 do
                          fe.(dst + l) <- f x fe.(bo + l)
                        done))
            | None, None -> generic ())
        | Vec (F32, _) -> (
            let f = float_binop_fn op in
            let generic () =
              let ga = lv_vget a and gb = lv_vget b in
              lwith_box_dst i (fun dst ls ->
                  for l = 0 to ls.nl - 1 do
                    ls.lbenv.(dst + l) <-
                      (match (ga ls l, gb ls l) with
                      | RVecF x, RVecF y -> RVecF (lanes_map2 f x y)
                      | _ -> trap "binop operand mismatch")
                  done)
            in
            match (bvar_slot a, bvar_slot b) with
            | Some ao, Some bo -> (
                match op with
                | Fadd ->
                    lwith_box_dst i (fun dst ls ->
                        let be = ls.lbenv in
                        for l = 0 to ls.nl - 1 do
                          be.(dst + l) <-
                            (match (be.(ao + l), be.(bo + l)) with
                            | RVecF x, RVecF y ->
                                RVecF (lanes_map2 ( +. ) x y)
                            | _ -> trap "binop operand mismatch")
                        done)
                | Fmul ->
                    lwith_box_dst i (fun dst ls ->
                        let be = ls.lbenv in
                        for l = 0 to ls.nl - 1 do
                          be.(dst + l) <-
                            (match (be.(ao + l), be.(bo + l)) with
                            | RVecF x, RVecF y ->
                                RVecF (lanes_map2 ( *. ) x y)
                            | _ -> trap "binop operand mismatch")
                        done)
                | _ ->
                    lwith_box_dst i (fun dst ls ->
                        let be = ls.lbenv in
                        for l = 0 to ls.nl - 1 do
                          be.(dst + l) <-
                            (match (be.(ao + l), be.(bo + l)) with
                            | RVecF x, RVecF y -> RVecF (lanes_map2 f x y)
                            | _ -> trap "binop operand mismatch")
                        done))
            | _ -> generic ())
        | Vec (_, _) ->
            let ga = lv_vget a and gb = lv_vget b and f = int_binop_fn I32 op in
            lwith_box_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lbenv.(dst + l) <-
                    (match (ga ls l, gb ls l) with
                    | RVecI x, RVecI y -> RVecI (lanes_map2 f x y)
                    | _ -> trap "binop operand mismatch")
                done)
        | _ -> fun _ -> trap "binop operand mismatch")
    | Icmp (c, a, b) -> (
        let f = icmp_fn (type_of a) c in
        let generic () =
          let ga = lv_iget a and gb = lv_iget b in
          lwith_int_dst i (fun dst ls ->
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- (if f (ga ls l) (gb ls l) then 1 else 0)
              done)
        in
        match (ivar_slot a, ivar_slot b) with
        | Some ao, Some bo ->
            lwith_int_dst i (fun dst ls ->
                let ie = ls.lienv in
                for l = 0 to ls.nl - 1 do
                  ie.(dst + l) <- (if f ie.(ao + l) ie.(bo + l) then 1 else 0)
                done)
        | Some ao, None -> (
            match ihoist b with
            | None -> generic ()
            | Some hb ->
                lwith_int_dst i (fun dst ls ->
                    let ie = ls.lienv and y = hb ls in
                    for l = 0 to ls.nl - 1 do
                      ie.(dst + l) <- (if f ie.(ao + l) y then 1 else 0)
                    done))
        | None, Some bo -> (
            match ihoist a with
            | None -> generic ()
            | Some ha ->
                lwith_int_dst i (fun dst ls ->
                    let ie = ls.lienv and x = ha ls in
                    for l = 0 to ls.nl - 1 do
                      ie.(dst + l) <- (if f x ie.(bo + l) then 1 else 0)
                    done))
        | None, None -> generic ())
    | Fcmp (c, a, b) -> (
        let f = fcmp_fn c in
        let generic () =
          let ga = lv_fget a and gb = lv_fget b in
          lwith_int_dst i (fun dst ls ->
              for l = 0 to ls.nl - 1 do
                ls.lienv.(dst + l) <- (if f (ga ls l) (gb ls l) then 1 else 0)
              done)
        in
        match (fvar_slot a, fvar_slot b) with
        | Some ao, Some bo ->
            lwith_int_dst i (fun dst ls ->
                let ie = ls.lienv and fe = ls.lfenv in
                for l = 0 to ls.nl - 1 do
                  ie.(dst + l) <- (if f fe.(ao + l) fe.(bo + l) then 1 else 0)
                done)
        | Some ao, None -> (
            match fhoist b with
            | None -> generic ()
            | Some hb ->
                lwith_int_dst i (fun dst ls ->
                    let ie = ls.lienv and fe = ls.lfenv and y = hb ls in
                    for l = 0 to ls.nl - 1 do
                      ie.(dst + l) <- (if f fe.(ao + l) y then 1 else 0)
                    done))
        | None, Some bo -> (
            match fhoist a with
            | None -> generic ()
            | Some ha ->
                lwith_int_dst i (fun dst ls ->
                    let ie = ls.lienv and fe = ls.lfenv and x = ha ls in
                    for l = 0 to ls.nl - 1 do
                      ie.(dst + l) <- (if f x fe.(bo + l) then 1 else 0)
                    done))
        | None, None -> generic ())
    | Select (c, a, b) -> (
        let gc = lv_iget c in
        match type_of a with
        | I1 | I8 | I16 | I32 | I64 -> (
            let generic () =
              let ga = lv_iget a and gb = lv_iget b in
              lwith_int_dst i (fun dst ls ->
                  for l = 0 to ls.nl - 1 do
                    ls.lienv.(dst + l) <-
                      (if gc ls l <> 0 then ga ls l else gb ls l)
                  done)
            in
            match (ivar_slot c, ivar_slot a, ivar_slot b) with
            | Some co, Some ao, Some bo ->
                lwith_int_dst i (fun dst ls ->
                    let ie = ls.lienv in
                    for l = 0 to ls.nl - 1 do
                      ie.(dst + l) <-
                        (if ie.(co + l) <> 0 then ie.(ao + l) else ie.(bo + l))
                    done)
            | Some co, _, _ -> (
                match (ihoist a, ihoist b) with
                | Some ha, Some hb ->
                    lwith_int_dst i (fun dst ls ->
                        let ie = ls.lienv in
                        let x = ha ls and y = hb ls in
                        for l = 0 to ls.nl - 1 do
                          ie.(dst + l) <- (if ie.(co + l) <> 0 then x else y)
                        done)
                | _ -> generic ())
            | _ -> generic ())
        | F32 -> (
            let generic () =
              let ga = lv_fget a and gb = lv_fget b in
              lwith_float_dst i (fun dst ls ->
                  for l = 0 to ls.nl - 1 do
                    ls.lfenv.(dst + l) <-
                      (if gc ls l <> 0 then ga ls l else gb ls l)
                  done)
            in
            match (ivar_slot c, fvar_slot a, fvar_slot b) with
            | Some co, Some ao, Some bo ->
                lwith_float_dst i (fun dst ls ->
                    let ie = ls.lienv and fe = ls.lfenv in
                    for l = 0 to ls.nl - 1 do
                      fe.(dst + l) <-
                        (if ie.(co + l) <> 0 then fe.(ao + l) else fe.(bo + l))
                    done)
            | Some co, _, _ -> (
                match (fhoist a, fhoist b) with
                | Some ha, Some hb ->
                    lwith_float_dst i (fun dst ls ->
                        let ie = ls.lienv and fe = ls.lfenv in
                        let x = ha ls and y = hb ls in
                        for l = 0 to ls.nl - 1 do
                          fe.(dst + l) <- (if ie.(co + l) <> 0 then x else y)
                        done)
                | _ -> generic ())
            | _ -> generic ())
        | _ -> (
            let generic () =
              let ga = lv_vget a and gb = lv_vget b in
              lwith_box_dst i (fun dst ls ->
                  for l = 0 to ls.nl - 1 do
                    ls.lbenv.(dst + l) <-
                      (if gc ls l <> 0 then ga ls l else gb ls l)
                  done)
            in
            match (ivar_slot c, bvar_slot a, bvar_slot b) with
            | Some co, Some ao, Some bo ->
                lwith_box_dst i (fun dst ls ->
                    let ie = ls.lienv and be = ls.lbenv in
                    for l = 0 to ls.nl - 1 do
                      be.(dst + l) <-
                        (if ie.(co + l) <> 0 then be.(ao + l) else be.(bo + l))
                    done)
            | _ -> generic ()))
    | Cast (k, v, t) -> (
        let src_t = type_of v in
        match (k, src_t) with
        | (Sext | Bitcast), (I1 | I8 | I16 | I32 | I64) ->
            let g = lv_iget v in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- sext_of src_t (g ls l)
                done)
        | Zext, (I1 | I8 | I16 | I32 | I64) ->
            let g = lv_iget v and m = mask_of src_t in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- g ls l land m
                done)
        | Trunc, (I1 | I8 | I16 | I32 | I64) ->
            let g = lv_iget v in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- sext_of t (g ls l)
                done)
        | Si_to_fp, (I1 | I8 | I16 | I32 | I64) ->
            let g = lv_iget v in
            lwith_float_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lfenv.(dst + l) <- float_of_int (g ls l)
                done)
        | Ui_to_fp, (I1 | I8 | I16 | I32 | I64) ->
            let g = lv_iget v and m = mask_of src_t in
            lwith_float_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lfenv.(dst + l) <- float_of_int (g ls l land m)
                done)
        | Fp_to_si, F32 ->
            let g = lv_fget v in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lienv.(dst + l) <- int_of_float (g ls l)
                done)
        | Bitcast, F32 ->
            let g = lv_fget v in
            lwith_float_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lfenv.(dst + l) <- g ls l
                done)
        | Bitcast, _ ->
            let g = lv_vget v in
            lwith_box_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lbenv.(dst + l) <- g ls l
                done)
        | _ -> fun _ -> trap "unsupported cast")
    | Call { callee; args; _ } -> lcompile_vcall i callee args
    | Load { ptr; index } -> (
        let gp = lv_bufget ptr and gi = lv_iget index in
        let loc = i.iloc in
        match elem_of_ptr (type_of ptr) with
        | F32 -> (
            match (buf_hoist ptr, ivar_slot index) with
            | Some hb, Some io ->
                lwith_float_dst i (fun dst ls ->
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
                          fe.(dst + l) <- Memory.get_float b idx
                        done
                    | Some _ ->
                        for l = 0 to ls.nl - 1 do
                          let idx = ie.(io + l) in
                          let wi = bf + l in
                          lane_record ls b idx ~is_write:false ~wi;
                          lane_san ls b idx ~is_write:false ~loc ~wi;
                          fe.(dst + l) <- Memory.get_float b idx
                        done)
            | _ ->
                lwith_float_dst i (fun dst ls ->
                    let bf = ls.base_flat in
                    for l = 0 to ls.nl - 1 do
                      let b = gp ls l and idx = gi ls l in
                      let wi = bf + l in
                      lane_record ls b idx ~is_write:false ~wi;
                      lane_san ls b idx ~is_write:false ~loc ~wi;
                      ls.lfenv.(dst + l) <- Memory.get_float b idx
                    done))
        | I1 | I8 | I16 | I32 | I64 -> (
            match (buf_hoist ptr, ivar_slot index) with
            | Some hb, Some io ->
                lwith_int_dst i (fun dst ls ->
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
            | _ ->
                lwith_int_dst i (fun dst ls ->
                    let bf = ls.base_flat in
                    for l = 0 to ls.nl - 1 do
                      let b = gp ls l and idx = gi ls l in
                      let wi = bf + l in
                      lane_record ls b idx ~is_write:false ~wi;
                      lane_san ls b idx ~is_write:false ~loc ~wi;
                      ls.lienv.(dst + l) <- Memory.get_int b idx
                    done))
        | Vec (F32, n) ->
            lwith_box_dst i (fun dst ls ->
                let bf = ls.base_flat in
                for l = 0 to ls.nl - 1 do
                  let b = gp ls l and idx = gi ls l in
                  let wi = bf + l in
                  lane_record ls b idx ~is_write:false ~wi;
                  lane_san ls b idx ~is_write:false ~loc ~wi;
                  ls.lbenv.(dst + l) <-
                    RVecF
                      (Array.init n (fun j -> Memory.get_lane_float b idx j))
                done)
        | Vec (_, n) ->
            lwith_box_dst i (fun dst ls ->
                let bf = ls.base_flat in
                for l = 0 to ls.nl - 1 do
                  let b = gp ls l and idx = gi ls l in
                  let wi = bf + l in
                  lane_record ls b idx ~is_write:false ~wi;
                  lane_san ls b idx ~is_write:false ~loc ~wi;
                  ls.lbenv.(dst + l) <-
                    RVecI (Array.init n (fun j -> Memory.get_lane_int b idx j))
                done)
        | _ -> fun _ -> trap "load of unsupported element type"
        | exception Invalid_argument _ ->
            fun _ -> trap "load of unsupported element type")
    | Store { ptr; index; v } -> (
        let gp = lv_bufget ptr and gi = lv_iget index in
        let loc = i.iloc in
        match type_of v with
        | F32 -> (
            let gv = lv_fget v in
            match (buf_hoist ptr, ivar_slot index, fvar_slot v) with
            | Some hb, Some io, Some vo ->
                fun ls ->
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
                        Memory.set_float b idx fe.(vo + l)
                      done
                  | Some _ ->
                      for l = 0 to ls.nl - 1 do
                        let idx = ie.(io + l) in
                        let wi = bf + l in
                        lane_record ls b idx ~is_write:true ~wi;
                        lane_san ls b idx ~is_write:true ~loc ~wi;
                        Memory.set_float b idx fe.(vo + l)
                      done)
            | _ ->
                fun ls ->
                  let bf = ls.base_flat in
                  for l = 0 to ls.nl - 1 do
                    let b = gp ls l and idx = gi ls l in
                    let wi = bf + l in
                    lane_record ls b idx ~is_write:true ~wi;
                    lane_san ls b idx ~is_write:true ~loc ~wi;
                    Memory.set_float b idx (gv ls l)
                  done)
        | I1 | I8 | I16 | I32 | I64 -> (
            let gv = lv_iget v in
            match (buf_hoist ptr, ivar_slot index, ivar_slot v) with
            | Some hb, Some io, Some vo ->
                fun ls ->
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
                      done)
            | _ ->
                fun ls ->
                  let bf = ls.base_flat in
                  for l = 0 to ls.nl - 1 do
                    let b = gp ls l and idx = gi ls l in
                    let wi = bf + l in
                    lane_record ls b idx ~is_write:true ~wi;
                    lane_san ls b idx ~is_write:true ~loc ~wi;
                    Memory.set_int b idx (gv ls l)
                  done)
        | _ ->
            let gv = lv_vget v in
            fun ls ->
              let bf = ls.base_flat in
              for l = 0 to ls.nl - 1 do
                let b = gp ls l and idx = gi ls l in
                let wi = bf + l in
                lane_record ls b idx ~is_write:true ~wi;
                lane_san ls b idx ~is_write:true ~loc ~wi;
                match gv ls l with
                | RFloat f -> Memory.set_float b idx f
                | RInt n -> Memory.set_int b idx n
                | RVecF a ->
                    Array.iteri (fun j x -> Memory.set_lane_float b idx j x) a
                | RVecI a ->
                    Array.iteri (fun j x -> Memory.set_lane_int b idx j x) a
                | RBuf _ -> trap "cannot store a pointer"
              done)
    | Extract (v, lane) -> (
        let gl = lv_iget lane in
        match type_of v with
        | Vec (F32, _) -> (
            match (bvar_slot v, ihoist lane) with
            | Some vo, Some hl ->
                lwith_float_dst i (fun dst ls ->
                    let be = ls.lbenv and fe = ls.lfenv in
                    let j = hl ls in
                    for l = 0 to ls.nl - 1 do
                      (match be.(vo + l) with
                      | RVecF a -> fe.(dst + l) <- a.(j)
                      | _ -> trap "extract from non-vector")
                    done)
            | _ ->
                let gv = lv_vget v in
                lwith_float_dst i (fun dst ls ->
                    for l = 0 to ls.nl - 1 do
                      (match gv ls l with
                      | RVecF a -> ls.lfenv.(dst + l) <- a.(gl ls l)
                      | _ -> trap "extract from non-vector")
                    done))
        | Vec (_, _) ->
            let gv = lv_vget v in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  (match gv ls l with
                  | RVecI a -> ls.lienv.(dst + l) <- a.(gl ls l)
                  | _ -> trap "extract from non-vector")
                done)
        | _ -> fun _ -> trap "extract from non-vector")
    | Insert (v, lane, s) ->
        let gv = lv_vget v and gl = lv_iget lane and gs = lv_vget s in
        lwith_box_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              (match (gv ls l, gs ls l) with
              | RVecF a, RFloat x ->
                  let a = Array.copy a in
                  a.(gl ls l) <- x;
                  ls.lbenv.(dst + l) <- RVecF a
              | RVecI a, RInt x ->
                  let a = Array.copy a in
                  a.(gl ls l) <- x;
                  ls.lbenv.(dst + l) <- RVecI a
              | _ -> trap "insert mismatch")
            done)
    | Vecbuild (t, vs) -> (
        match t with
        | Vec (F32, _) ->
            let gs = Array.of_list (List.map lv_fget vs) in
            lwith_box_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lbenv.(dst + l) <-
                    RVecF (Array.map (fun g -> g ls l) gs)
                done)
        | Vec (_, _) ->
            let gs = Array.of_list (List.map lv_iget vs) in
            lwith_box_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  ls.lbenv.(dst + l) <-
                    RVecI (Array.map (fun g -> g ls l) gs)
                done)
        | _ -> fun _ -> trap "vecbuild of non-vector")
    | Alloca _ -> fun _ -> trap "unsupported alloca space"
    | Phi _ -> fun _ -> trap "phi executed outside block entry"
    | Barrier _ -> fun _ -> trap "barrier executed as a body instruction"
    | Br _ | Cond_br _ | Ret ->
        fun _ -> trap "terminator executed as body instruction"
  in

  let lane_instr (i : instr) : lane_state -> unit =
    match i.op with
    | Alloca { aspace = Private; _ } -> raise Unbatchable
    | _ ->
        if Hashtbl.mem kinds i.iid && not (Divergence.iid_divergent dv i.iid)
        then lcompile_uni i
        else lcompile_var i
  in

  (* Per-edge phi moves, split by the destination phi's uniformity. The
     fixpoint guarantees a uniform phi only has uniform incomings. *)
  let scr_ui = ref 0 and scr_uf = ref 0 and scr_ub = ref 0 in
  let scr_vi = ref 0 and scr_vf = ref 0 and scr_vb = ref 0 in
  let mk_ledge (src : block) (dst : block) : ledge =
    let uim = ref [] and ufm = ref [] and ubm = ref [] in
    let vim = ref [] and vfm = ref [] and vbm = ref [] in
    List.iter
      (fun (pi : instr) ->
        match pi.op with
        | Phi { incoming; _ } -> (
            match List.find_opt (fun (b, _) -> b.bid = src.bid) incoming with
            | None ->
                uim :=
                  (0, fun _ -> trap "phi has no incoming for predecessor")
                  :: !uim
            | Some (_, v) -> (
                let phi_uni = not (Divergence.iid_divergent dv pi.iid) in
                match kind_of pi with
                | Some (KInt s) ->
                    if phi_uni then uim := (s * lw, lu_iget v) :: !uim
                    else vim := (s * lw, lv_iget v) :: !vim
                | Some (KFloat s) ->
                    if phi_uni then ufm := (s * lw, lu_fget v) :: !ufm
                    else vfm := (s * lw, lv_fget v) :: !vfm
                | Some (KBox s) ->
                    if phi_uni then ubm := (s * lw, lu_vget v) :: !ubm
                    else vbm := (s * lw, lv_vget v) :: !vbm
                | None -> ()))
        | _ -> ())
      dst.instrs;
    let uim = Array.of_list (List.rev !uim)
    and ufm = Array.of_list (List.rev !ufm)
    and ubm = Array.of_list (List.rev !ubm)
    and vim = Array.of_list (List.rev !vim)
    and vfm = Array.of_list (List.rev !vfm)
    and vbm = Array.of_list (List.rev !vbm) in
    scr_ui := max !scr_ui (Array.length uim);
    scr_uf := max !scr_uf (Array.length ufm);
    scr_ub := max !scr_ub (Array.length ubm);
    scr_vi := max !scr_vi (Array.length vim);
    scr_vf := max !scr_vf (Array.length vfm);
    scr_vb := max !scr_vb (Array.length vbm);
    {
      le_dst = Hashtbl.find bidx dst.bid;
      lu_im_dst = Array.map fst uim;
      lu_im_src = Array.map snd uim;
      lu_fm_dst = Array.map fst ufm;
      lu_fm_src = Array.map snd ufm;
      lu_bm_dst = Array.map fst ubm;
      lu_bm_src = Array.map snd ubm;
      lv_im_dst = Array.map fst vim;
      lv_im_src = Array.map snd vim;
      lv_fm_dst = Array.map fst vfm;
      lv_fm_src = Array.map snd vfm;
      lv_bm_dst = Array.map fst vbm;
      lv_bm_src = Array.map snd vbm;
    }
  in
  let bare_ledge (dst : block) : ledge =
    {
      le_dst = Hashtbl.find bidx dst.bid;
      lu_im_dst = [||];
      lu_im_src = [||];
      lu_fm_dst = [||];
      lu_fm_src = [||];
      lu_bm_dst = [||];
      lu_bm_src = [||];
      lv_im_dst = [||];
      lv_im_src = [||];
      lv_fm_dst = [||];
      lv_fm_src = [||];
      lv_bm_dst = [||];
      lv_bm_src = [||];
    }
  in

  (* -- Masked diamond if-conversion ---------------------------------------

     A divergent [Cond_br] classified by {!Regions} as a pure diamond is
     compiled into the branch block's own segment: a predicate closure
     fills [lpred]/[lnthen] (charging one branch per lane, as the scalar
     executors do at [Tcond]), each arm's body runs under its mask, phi
     nodes at the join are written as per-lane masked merges, and the
     terminator becomes a plain jump to the join. Pure varying
     instructions evaluate flat over every lane — an inactive lane's
     garbage is only ever read by the masked merge, which selects the
     other side — while instructions whose execution is observable or can
     fault (loads: trace/sanitizer event identity; integer division:
     traps; vector extract/insert: data-dependent lane indices) run under
     an explicit per-lane guard. Each arm's static cost is charged per
     active lane and the arm is skipped outright when no lane takes it,
     so trace totals stay bit-identical to the scalar sweep, which
     executes an arm only for the work-items that branch into it. *)
  let blk_of_bid : (int, block) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun ((b : block), _, _) -> Hashtbl.replace blk_of_bid b.bid b)
    seg_descs;

  (* Masked compilation of the arm instructions that must not run on
     inactive lanes; [on] is the [lpred] value (1 = then, 0 = else) that
     activates this arm. *)
  let lmasked_var ~(on : int) (i : instr) : lane_state -> unit =
    match i.op with
    | Load { ptr; index } -> (
        let gp = lv_bufget ptr and gi = lv_iget index in
        let loc = i.iloc in
        match elem_of_ptr (type_of ptr) with
        | F32 ->
            lwith_float_dst i (fun dst ls ->
                let bf = ls.base_flat in
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then begin
                    let b = gp ls l and idx = gi ls l in
                    let wi = bf + l in
                    lane_record ls b idx ~is_write:false ~wi;
                    lane_san ls b idx ~is_write:false ~loc ~wi;
                    ls.lfenv.(dst + l) <- Memory.get_float b idx
                  end
                done)
        | I1 | I8 | I16 | I32 | I64 ->
            lwith_int_dst i (fun dst ls ->
                let bf = ls.base_flat in
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then begin
                    let b = gp ls l and idx = gi ls l in
                    let wi = bf + l in
                    lane_record ls b idx ~is_write:false ~wi;
                    lane_san ls b idx ~is_write:false ~loc ~wi;
                    ls.lienv.(dst + l) <- Memory.get_int b idx
                  end
                done)
        | Vec (F32, n) ->
            lwith_box_dst i (fun dst ls ->
                let bf = ls.base_flat in
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then begin
                    let b = gp ls l and idx = gi ls l in
                    let wi = bf + l in
                    lane_record ls b idx ~is_write:false ~wi;
                    lane_san ls b idx ~is_write:false ~loc ~wi;
                    ls.lbenv.(dst + l) <-
                      RVecF
                        (Array.init n (fun j -> Memory.get_lane_float b idx j))
                  end
                done)
        | Vec (_, n) ->
            lwith_box_dst i (fun dst ls ->
                let bf = ls.base_flat in
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then begin
                    let b = gp ls l and idx = gi ls l in
                    let wi = bf + l in
                    lane_record ls b idx ~is_write:false ~wi;
                    lane_san ls b idx ~is_write:false ~loc ~wi;
                    ls.lbenv.(dst + l) <-
                      RVecI
                        (Array.init n (fun j -> Memory.get_lane_int b idx j))
                  end
                done)
        | _ -> fun _ -> trap "load of unsupported element type"
        | exception Invalid_argument _ ->
            fun _ -> trap "load of unsupported element type")
    | Binop (op, a, b) -> (
        match type_of a with
        | (I1 | I8 | I16 | I32 | I64) as t ->
            let f = int_binop_fn t op in
            let ga = lv_iget a and gb = lv_iget b in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then
                    ls.lienv.(dst + l) <- f (ga ls l) (gb ls l)
                done)
        | Vec (_, _) ->
            let ga = lv_vget a and gb = lv_vget b and f = int_binop_fn I32 op in
            lwith_box_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then
                    ls.lbenv.(dst + l) <-
                      (match (ga ls l, gb ls l) with
                      | RVecI x, RVecI y -> RVecI (lanes_map2 f x y)
                      | _ -> trap "binop operand mismatch")
                done)
        | _ -> lcompile_var i)
    | Extract (v, lane) -> (
        let gl = lv_iget lane in
        match type_of v with
        | Vec (F32, _) ->
            let gv = lv_vget v in
            lwith_float_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then
                    match gv ls l with
                    | RVecF a -> ls.lfenv.(dst + l) <- a.(gl ls l)
                    | _ -> trap "extract from non-vector"
                done)
        | Vec (_, _) ->
            let gv = lv_vget v in
            lwith_int_dst i (fun dst ls ->
                for l = 0 to ls.nl - 1 do
                  if ls.lpred.(l) = on then
                    match gv ls l with
                    | RVecI a -> ls.lienv.(dst + l) <- a.(gl ls l)
                    | _ -> trap "extract from non-vector"
                done)
        | _ -> fun _ -> trap "extract from non-vector")
    | Insert (v, lane, s) ->
        let gv = lv_vget v and gl = lv_iget lane and gs = lv_vget s in
        lwith_box_dst i (fun dst ls ->
            for l = 0 to ls.nl - 1 do
              if ls.lpred.(l) = on then
                match (gv ls l, gs ls l) with
                | RVecF a, RFloat x ->
                    let a = Array.copy a in
                    a.(gl ls l) <- x;
                    ls.lbenv.(dst + l) <- RVecF a
                | RVecI a, RInt x ->
                    let a = Array.copy a in
                    a.(gl ls l) <- x;
                    ls.lbenv.(dst + l) <- RVecI a
                | _ -> trap "insert mismatch"
            done)
    | _ -> lcompile_var i
  in
  let lane_arm_instr ~(on : int) (i : instr) : lane_state -> unit =
    match i.op with
    | Alloca { aspace = Private; _ } -> raise Unbatchable
    | _ ->
        if Hashtbl.mem kinds i.iid && not (Divergence.iid_divergent dv i.iid)
        then
          (* uniform: computed flat once per batch — safe because the arm
             body is skipped entirely when no lane is active, and a
             uniform divisor is the same value the scalar sweep divides
             by for every work-item that takes the arm *)
          lcompile_uni i
        else (
          match i.op with
          | Load _
          | Binop ((Sdiv | Udiv | Srem | Urem), _, _)
          | Extract _ | Insert _ ->
              lmasked_var ~on i
          | _ -> lcompile_var i)
  in

  (* Per-lane masked merges for the join's phis: each lane selects the
     incoming value of the arm it took. Join phis are divergent by
     construction (the divergence fixpoint marks every phi of a join
     block), so the destinations are varying columns. *)
  let masked_phi_merges (jb : block) ~(tpred : int) ~(epred : int) :
      (lane_state -> unit) list =
    List.filter_map
      (fun (pi : instr) ->
        match pi.op with
        | Phi { incoming; _ } -> (
            let inc bid =
              List.find_opt (fun ((p : block), _) -> p.bid = bid) incoming
            in
            match (inc tpred, inc epred, kind_of pi) with
            | _, _, None -> None
            | Some (_, tv), Some (_, ev), Some (KInt s) ->
                let b = s * lw in
                let gt = lv_iget tv and ge = lv_iget ev in
                Some
                  (fun ls ->
                    let ie = ls.lienv and pr = ls.lpred in
                    for l = 0 to ls.nl - 1 do
                      ie.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
                    done)
            | Some (_, tv), Some (_, ev), Some (KFloat s) ->
                let b = s * lw in
                let gt = lv_fget tv and ge = lv_fget ev in
                Some
                  (fun ls ->
                    let fe = ls.lfenv and pr = ls.lpred in
                    for l = 0 to ls.nl - 1 do
                      fe.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
                    done)
            | Some (_, tv), Some (_, ev), Some (KBox s) ->
                let b = s * lw in
                let gt = lv_vget tv and ge = lv_vget ev in
                Some
                  (fun ls ->
                    let be = ls.lbenv and pr = ls.lpred in
                    for l = 0 to ls.nl - 1 do
                      be.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
                    done)
            | _ ->
                Some
                  (fun _ -> trap "phi has no incoming for a diamond edge"))
        | _ -> None)
      jb.instrs
  in
  let compile_diamond (b : block) (c : value) (d : Regions.diamond) :
      (lane_state -> unit) list * lterm =
    let arm_blk = Option.map (Hashtbl.find blk_of_bid) in
    let tb = arm_blk d.Regions.d_then and eb = arm_blk d.Regions.d_else in
    let jb = Hashtbl.find blk_of_bid d.Regions.d_join in
    let gc = lv_iget c in
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
            Array.of_list (List.map (lane_arm_instr ~on) blk.instrs)
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

  (* Compile every segment that can be batched; [Unbatchable] leaves its
     slot [None]. *)
  let n_segs = Array.length seg_descs in
  let lsegs : lseg option array = Array.make n_segs None in
  Array.iteri
    (fun si ((b : block), (instrs : instr list), (bar : instr option)) ->
      match
        let lbody =
          List.filter_map
            (fun (i : instr) ->
              match i.op with Phi _ -> None | _ -> Some (lane_instr i))
            instrs
        in
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
              | Some { op = Cond_br (c, t, e); _ } ->
                  if Divergence.value_divergent dv c then (
                    match Hashtbl.find_opt info.Regions.diamonds b.bid with
                    | Some d -> compile_diamond b c d
                    | None -> raise Unbatchable)
                  else ([], LTcond (lu_iget c, mk_ledge b t, mk_ledge b e))
              | Some { op = Ret; _ } -> ([], LTret)
              | _ -> ([], LTtrap "missing terminator"))
        in
        { lbody = Array.of_list (lbody @ extra); lterm }
      with
      | lseg -> lsegs.(si) <- Some lseg
      | exception Unbatchable -> ())
    seg_descs;

  (* A region entry is lane-sweepable iff {!Regions} said so and every
     segment reachable from it (stopping at barriers) actually compiled. *)
  let entry_seg e = if e = 0 then 0 else bar_entry.(e - 1) in
  let reachable_ok (start : int) : bool =
    let seen = Array.make (max 1 n_segs) false in
    let ok = ref true in
    let rec walk s =
      if !ok && not seen.(s) then begin
        seen.(s) <- true;
        match lsegs.(s) with
        | None -> ok := false
        | Some sg -> (
            match sg.lterm with
            | LTbr e -> walk e.le_dst
            | LTcond (_, t, e) ->
                walk t.le_dst;
                walk e.le_dst
            | LTret | LTbarrier _ | LTtrap _ -> ())
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

  (* Lane spill plans: same context columns as the scalar plan ([ctx_col]),
     slot bases pre-multiplied, split by uniformity. *)
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
          | Some (KInt s) ->
              let p = (s * lw, Hashtbl.find ctx_col iid) in
              if u then ui := p :: !ui else vi := p :: !vi
          | Some (KFloat s) ->
              let p = (s * lw, Hashtbl.find ctx_col iid) in
              if u then uf := p :: !uf else vf := p :: !vf
          | Some (KBox s) ->
              let p = (s * lw, Hashtbl.find ctx_col iid) in
              if u then ub := p :: !ub else vb := p :: !vb
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
  {
    lwidth = lw;
    lsegs;
    lentry;
    lscr_ui = !scr_ui;
    lscr_uf = !scr_uf;
    lscr_ub = !scr_ub;
    lscr_vi = !scr_vi;
    lscr_vf = !scr_vf;
    lscr_vb = !scr_vb;
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

let compile_fn ~(lane_width : int) (fn : func) (regions : Regions.verdict) :
    cfunc =
  let kinds : (int, kind) Hashtbl.t = Hashtbl.create 64 in
  let ni = ref 0 and nf = ref 0 and nb = ref 0 in
  iter_instrs
    (fun i ->
      match type_of_opcode i.op with
      | Void -> ()
      | I1 | I8 | I16 | I32 | I64 ->
          Hashtbl.replace kinds i.iid (KInt !ni);
          incr ni
      | F32 ->
          Hashtbl.replace kinds i.iid (KFloat !nf);
          incr nf
      | _ ->
          Hashtbl.replace kinds i.iid (KBox !nb);
          incr nb
      | exception Invalid_argument _ -> ())
    fn;
  let kind_of (i : instr) = Hashtbl.find_opt kinds i.iid in
  (* Segment layout: each block contributes an entry segment plus one
     continuation segment per barrier it contains, laid out contiguously.
     [bidx] maps a block id to its entry segment (branch edges can only
     target block entries); [bar_index]/[bar_entry] number barriers
     densely in block-then-body order, matching {!Regions.form}. *)
  let bidx : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let bar_index : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let n_segs = ref 0 and n_bars = ref 0 in
  let bar_entry_rev = ref [] in
  List.iter
    (fun b ->
      Hashtbl.replace bidx b.bid !n_segs;
      incr n_segs;
      List.iter
        (fun (i : instr) ->
          match i.op with
          | Barrier _ ->
              Hashtbl.replace bar_index i.iid !n_bars;
              incr n_bars;
              bar_entry_rev := !n_segs :: !bar_entry_rev;
              incr n_segs
          | _ -> ())
        b.instrs)
    fn.blocks;
  let bar_entry = Array.of_list (List.rev !bar_entry_rev) in

  (* Destination helpers: hand the slot to [mk], or trap at execution time
     if the instruction's static type disagrees with the expected kind. *)
  let with_int_dst (i : instr) (mk : int -> wi_state -> unit) =
    match kind_of i with
    | Some (KInt s) -> mk s
    | _ -> fun _ -> trap "slot kind mismatch (int) at instruction %d" i.iid
  in
  let with_float_dst (i : instr) (mk : int -> wi_state -> unit) =
    match kind_of i with
    | Some (KFloat s) -> mk s
    | _ -> fun _ -> trap "slot kind mismatch (float) at instruction %d" i.iid
  in
  let with_box_dst (i : instr) (mk : int -> wi_state -> unit) =
    match kind_of i with
    | Some (KBox s) -> mk s
    | _ -> fun _ -> trap "slot kind mismatch (aggregate) at instruction %d" i.iid
  in

  (* Typed operand getters, resolved at compile time. *)
  let iget (v : value) : wi_state -> int =
    match v with
    | Cint (t, n) ->
        let k = sext_of t n in
        fun _ -> k
    | Cfloat f -> fun _ -> trap "expected int, got float %g" f
    | Arg a ->
        let j = a.a_index in
        fun st -> as_int st.args.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KInt s) -> fun st -> st.ienv.(s)
        | Some (KFloat s) -> fun st -> trap "expected int, got float %g" st.fenv.(s)
        | Some (KBox s) -> fun st -> as_int st.benv.(s)
        | None -> fun _ -> trap "use of a void value")
  in
  let fget (v : value) : wi_state -> float =
    match v with
    | Cfloat f -> fun _ -> f
    | Cint (_, n) -> fun _ -> trap "expected float, got int %d" n
    | Arg a ->
        let j = a.a_index in
        fun st -> as_float st.args.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KFloat s) -> fun st -> st.fenv.(s)
        | Some (KInt s) -> fun st -> trap "expected float, got int %d" st.ienv.(s)
        | Some (KBox s) -> fun st -> as_float st.benv.(s)
        | None -> fun _ -> trap "use of a void value")
  in
  let bufget (v : value) : wi_state -> Memory.buffer =
    match v with
    | Arg a ->
        let j = a.a_index in
        fun st -> as_buf st.args.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KBox s) -> fun st -> as_buf st.benv.(s)
        | _ -> fun _ -> trap "expected a pointer")
    | _ -> fun _ -> trap "expected a pointer"
  in
  let vget (v : value) : wi_state -> rv =
    match v with
    | Cint (t, n) ->
        let r = RInt (sext_of t n) in
        fun _ -> r
    | Cfloat f ->
        let r = RFloat f in
        fun _ -> r
    | Arg a ->
        let j = a.a_index in
        fun st -> st.args.(j)
    | Vinstr i -> (
        match kind_of i with
        | Some (KInt s) -> fun st -> RInt st.ienv.(s)
        | Some (KFloat s) -> fun st -> RFloat st.fenv.(s)
        | Some (KBox s) -> fun st -> st.benv.(s)
        | None -> fun _ -> trap "use of a void value")
  in

  let is_int_ty = function I1 | I8 | I16 | I32 | I64 -> true | _ -> false in

  let compile_call (i : instr) callee (args : value list) : wi_state -> unit =
    let arg_tys = List.map type_of args in
    (* Work-item index queries: resolve the selector and, when the
       dimension is a constant (the common case after canon), the index. *)
    let wi_query (sel : wi_ctx -> int array) =
      match args with
      | [ Cint (_, d) ] when d >= 0 && d < 3 ->
          with_int_dst i (fun dst st ->
              st.ienv.(dst) <- (sel st.ctx).(d))
      | [ dv ] ->
          let g = iget dv in
          with_int_dst i (fun dst st ->
              let d = g st in
              if d < 0 || d >= 3 then trap "dimension out of range";
              st.ienv.(dst) <- (sel st.ctx).(d))
      | _ -> fun _ -> trap "%s expects a dimension" callee
    in
    let mismatch = fun _ -> trap "%s argument mismatch" callee in
    match callee with
    | "get_local_id" -> wi_query (fun c -> c.lid)
    | "get_global_id" -> wi_query (fun c -> c.gid)
    | "get_group_id" -> wi_query (fun c -> c.grp)
    | "get_local_size" -> wi_query (fun c -> c.lsz)
    | "get_global_size" -> wi_query (fun c -> c.gsz)
    | "get_num_groups" -> wi_query (fun c -> c.ngr)
    | "get_global_offset" ->
        with_int_dst i (fun dst st ->
            st.ienv.(dst) <- 0)
    | "get_work_dim" ->
        with_int_dst i (fun dst st ->
            st.ienv.(dst) <- 3)
    | "dot" -> (
        match (args, arg_tys) with
        | [ a; b ], [ Vec (F32, _); Vec (F32, _) ] ->
            let ga = vget a and gb = vget b in
            with_float_dst i (fun dst st ->
                match (ga st, gb st) with
                | RVecF x, RVecF y ->
                    let s = ref 0.0 in
                    Array.iteri (fun l v -> s := !s +. (v *. y.(l))) x;
                    st.fenv.(dst) <- !s
                | _ -> trap "dot expects float vectors")
        | [ a; b ], [ F32; F32 ] ->
            let ga = fget a and gb = fget b in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- ga st *. gb st)
        | _ -> fun _ -> trap "dot expects float vectors")
    | "mad" | "fma" -> (
        match (args, arg_tys) with
        | [ a; b; c ], [ F32; F32; F32 ] ->
            let ga = fget a and gb = fget b and gc = fget c in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- (ga st *. gb st) +. gc st)
        | [ a; b; c ], [ Vec (F32, _); Vec (F32, _); Vec (F32, _) ] ->
            let ga = vget a and gb = vget b and gc = vget c in
            with_box_dst i (fun dst st ->
                match (ga st, gb st, gc st) with
                | RVecF x, RVecF y, RVecF z ->
                    st.benv.(dst) <-
                      RVecF
                        (Array.init (Array.length x) (fun l ->
                             (x.(l) *. y.(l)) +. z.(l)))
                | _ -> trap "mad argument mismatch")
        | [ a; b; c ], [ ta; tb; tc ]
          when is_int_ty ta && is_int_ty tb && is_int_ty tc ->
            let ga = iget a and gb = iget b and gc = iget c in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- (ga st * gb st) + gc st)
        | _ -> mismatch)
    | "clamp" -> (
        match (args, arg_tys) with
        | [ x; lo; hi ], [ F32; F32; F32 ] ->
            let gx = fget x and gl = fget lo and gh = fget hi in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- Float.min (Float.max (gx st) (gl st)) (gh st))
        | [ x; lo; hi ], [ tx; tl; th ]
          when is_int_ty tx && is_int_ty tl && is_int_ty th ->
            let gx = iget x and gl = iget lo and gh = iget hi in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- min (max (gx st) (gl st)) (gh st))
        | _ -> mismatch)
    | "mix" -> (
        match (args, arg_tys) with
        | [ a; b; t ], [ F32; F32; F32 ] ->
            let ga = fget a and gb = fget b and gt = fget t in
            with_float_dst i (fun dst st ->
                let a = ga st in
                st.fenv.(dst) <- a +. ((gb st -. a) *. gt st))
        | _ -> mismatch)
    | "min" | "max" -> (
        let pick_i : int -> int -> int = if callee = "min" then min else max in
        let pick_f : float -> float -> float =
          if callee = "min" then Float.min else Float.max
        in
        match (args, arg_tys) with
        | [ a; b ], [ ta; tb ] when is_int_ty ta && is_int_ty tb ->
            let ga = iget a and gb = iget b in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- pick_i (ga st) (gb st))
        | [ a; b ], [ F32; F32 ] ->
            let ga = fget a and gb = fget b in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- pick_f (ga st) (gb st))
        | _ -> mismatch)
    | "abs" -> (
        match (args, arg_tys) with
        | [ a ], [ ta ] when is_int_ty ta ->
            let ga = iget a in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- abs (ga st))
        | [ a ], [ F32 ] ->
            let ga = fget a in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- Float.abs (ga st))
        | _ -> mismatch)
    | "mul24" -> (
        match (args, arg_tys) with
        | [ a; b ], [ ta; tb ] when is_int_ty ta && is_int_ty tb ->
            let ga = iget a and gb = iget b in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- ga st * gb st)
        | _ -> mismatch)
    | "mad24" -> (
        match (args, arg_tys) with
        | [ a; b; c ], [ ta; tb; tc ]
          when is_int_ty ta && is_int_ty tb && is_int_ty tc ->
            let ga = iget a and gb = iget b and gc = iget c in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- (ga st * gb st) + gc st)
        | _ -> mismatch)
    | "fmax" | "fmin" | "pow" | "fmod" | "hypot" | "native_divide" -> (
        let f =
          match math2_fn callee with Some f -> f | None -> assert false
        in
        match (args, arg_tys) with
        | [ a; b ], [ F32; F32 ] ->
            let ga = fget a and gb = fget b in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- f (ga st) (gb st))
        | [ a; b ], [ Vec (F32, _); Vec (F32, _) ] ->
            let ga = vget a and gb = vget b in
            with_box_dst i (fun dst st ->
                match (ga st, gb st) with
                | RVecF x, RVecF y -> st.benv.(dst) <- RVecF (lanes_map2 f x y)
                | _ -> trap "%s argument mismatch" callee)
        | _ -> mismatch)
    | _ -> (
        (* Remaining builtins are unary float math. *)
        match (args, arg_tys, math1_fn callee) with
        | [ a ], [ F32 ], Some f ->
            let ga = fget a in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- f (ga st))
        | [ a ], [ Vec (F32, _) ], Some f ->
            let ga = vget a in
            with_box_dst i (fun dst st ->
                match ga st with
                | RVecF x -> st.benv.(dst) <- RVecF (Array.map f x)
                | _ -> trap "unsupported call %s" callee)
        | _ -> fun _ -> trap "unsupported call %s" callee)
  in

  let compile_instr (i : instr) : wi_state -> unit =
    match i.op with
    | Binop (op, a, b) -> (
        match type_of a with
        | (I1 | I8 | I16 | I32 | I64) as t ->
            let ga = iget a and gb = iget b and f = int_binop_fn t op in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- f (ga st) (gb st))
        | F32 ->
            let ga = fget a and gb = fget b and f = float_binop_fn op in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- f (ga st) (gb st))
        | Vec (F32, _) ->
            let ga = vget a and gb = vget b and f = float_binop_fn op in
            with_box_dst i (fun dst st ->
                match (ga st, gb st) with
                | RVecF x, RVecF y ->
                    st.benv.(dst) <- RVecF (lanes_map2 f x y)
                | _ -> trap "binop operand mismatch")
        | Vec (_, _) ->
            let ga = vget a and gb = vget b and f = int_binop_fn I32 op in
            with_box_dst i (fun dst st ->
                match (ga st, gb st) with
                | RVecI x, RVecI y ->
                    st.benv.(dst) <- RVecI (lanes_map2 f x y)
                | _ -> trap "binop operand mismatch")
        | _ -> fun _ -> trap "binop operand mismatch")
    | Icmp (c, a, b) ->
        let ga = iget a and gb = iget b and f = icmp_fn (type_of a) c in
        with_int_dst i (fun dst st ->
            st.ienv.(dst) <- (if f (ga st) (gb st) then 1 else 0))
    | Fcmp (c, a, b) ->
        let ga = fget a and gb = fget b and f = fcmp_fn c in
        with_int_dst i (fun dst st ->
            st.ienv.(dst) <- (if f (ga st) (gb st) then 1 else 0))
    | Select (c, a, b) -> (
        let gc = iget c in
        match type_of a with
        | I1 | I8 | I16 | I32 | I64 ->
            let ga = iget a and gb = iget b in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- (if gc st <> 0 then ga st else gb st))
        | F32 ->
            let ga = fget a and gb = fget b in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- (if gc st <> 0 then ga st else gb st))
        | _ ->
            let ga = vget a and gb = vget b in
            with_box_dst i (fun dst st ->
                st.benv.(dst) <- (if gc st <> 0 then ga st else gb st)))
    | Cast (k, v, t) -> (
        let src_t = type_of v in
        match (k, src_t) with
        | (Sext | Bitcast), (I1 | I8 | I16 | I32 | I64) ->
            let g = iget v in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- sext_of src_t (g st))
        | Zext, (I1 | I8 | I16 | I32 | I64) ->
            let g = iget v and m = mask_of src_t in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- g st land m)
        | Trunc, (I1 | I8 | I16 | I32 | I64) ->
            let g = iget v in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- sext_of t (g st))
        | Si_to_fp, (I1 | I8 | I16 | I32 | I64) ->
            let g = iget v in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- float_of_int (g st))
        | Ui_to_fp, (I1 | I8 | I16 | I32 | I64) ->
            let g = iget v and m = mask_of src_t in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- float_of_int (g st land m))
        | Fp_to_si, F32 ->
            let g = fget v in
            with_int_dst i (fun dst st ->
                st.ienv.(dst) <- int_of_float (g st))
        | Bitcast, F32 ->
            let g = fget v in
            with_float_dst i (fun dst st ->
                st.fenv.(dst) <- g st)
        | Bitcast, _ ->
            let g = vget v in
            with_box_dst i (fun dst st ->
                st.benv.(dst) <- g st)
        | _ -> fun _ -> trap "unsupported cast")
    | Call { callee; args; _ } -> compile_call i callee args
    | Alloca { aspace = Local; _ } ->
        let iid = i.iid in
        with_box_dst i (fun dst st ->
            match Hashtbl.find_opt st.local_bufs iid with
            | Some b -> st.benv.(dst) <- RBuf b
            | None -> trap "local alloca without a group buffer")
    | Alloca { aspace = Private; elem; count; _ } ->
        with_box_dst i (fun dst st ->
            st.benv.(dst) <- RBuf (alloc_private st elem count))
    | Alloca _ -> fun _ -> trap "unsupported alloca space"
    | Load { ptr; index } -> (
        let gp = bufget ptr and gi = iget index in
        let loc = i.iloc in
        match elem_of_ptr (type_of ptr) with
        | F32 ->
            with_float_dst i (fun dst st ->
                let b = gp st in
                let idx = gi st in
                record_access st b idx ~is_write:false;
                san_access st b idx ~is_write:false ~loc;
                st.fenv.(dst) <- Memory.get_float b idx)
        | I1 | I8 | I16 | I32 | I64 ->
            with_int_dst i (fun dst st ->
                let b = gp st in
                let idx = gi st in
                record_access st b idx ~is_write:false;
                san_access st b idx ~is_write:false ~loc;
                st.ienv.(dst) <- Memory.get_int b idx)
        | Vec (F32, n) ->
            with_box_dst i (fun dst st ->
                let b = gp st in
                let idx = gi st in
                record_access st b idx ~is_write:false;
                san_access st b idx ~is_write:false ~loc;
                st.benv.(dst) <-
                  RVecF (Array.init n (fun l -> Memory.get_lane_float b idx l)))
        | Vec (_, n) ->
            with_box_dst i (fun dst st ->
                let b = gp st in
                let idx = gi st in
                record_access st b idx ~is_write:false;
                san_access st b idx ~is_write:false ~loc;
                st.benv.(dst) <-
                  RVecI (Array.init n (fun l -> Memory.get_lane_int b idx l)))
        | _ -> fun _ -> trap "load of unsupported element type"
        | exception Invalid_argument _ ->
            fun _ -> trap "load of unsupported element type")
    | Store { ptr; index; v } -> (
        let gp = bufget ptr and gi = iget index in
        let loc = i.iloc in
        match type_of v with
        | F32 ->
            let gv = fget v in
            fun st ->
              let b = gp st in
              let idx = gi st in
              record_access st b idx ~is_write:true;
              san_access st b idx ~is_write:true ~loc;
              Memory.set_float b idx (gv st)
        | I1 | I8 | I16 | I32 | I64 ->
            let gv = iget v in
            fun st ->
              let b = gp st in
              let idx = gi st in
              record_access st b idx ~is_write:true;
              san_access st b idx ~is_write:true ~loc;
              Memory.set_int b idx (gv st)
        | _ ->
            let gv = vget v in
            fun st -> store_elem st (gp st) (gi st) ~loc (gv st))
    | Extract (v, lane) -> (
        let gl = iget lane in
        match type_of v with
        | Vec (F32, _) ->
            let gv = vget v in
            with_float_dst i (fun dst st ->
                let l = gl st in
                match gv st with
                | RVecF a -> st.fenv.(dst) <- a.(l)
                | _ -> trap "extract from non-vector")
        | Vec (_, _) ->
            let gv = vget v in
            with_int_dst i (fun dst st ->
                let l = gl st in
                match gv st with
                | RVecI a -> st.ienv.(dst) <- a.(l)
                | _ -> trap "extract from non-vector")
        | _ -> fun _ -> trap "extract from non-vector")
    | Insert (v, lane, s) ->
        let gv = vget v and gl = iget lane and gs = vget s in
        with_box_dst i (fun dst st ->
            let l = gl st in
            match (gv st, gs st) with
            | RVecF a, RFloat x ->
                let a = Array.copy a in
                a.(l) <- x;
                st.benv.(dst) <- RVecF a
            | RVecI a, RInt x ->
                let a = Array.copy a in
                a.(l) <- x;
                st.benv.(dst) <- RVecI a
            | _ -> trap "insert mismatch")
    | Vecbuild (t, vs) -> (
        match t with
        | Vec (F32, _) ->
            let gs = Array.of_list (List.map fget vs) in
            with_box_dst i (fun dst st ->
                st.benv.(dst) <- RVecF (Array.map (fun g -> g st) gs))
        | Vec (_, _) ->
            let gs = Array.of_list (List.map iget vs) in
            with_box_dst i (fun dst st ->
                st.benv.(dst) <- RVecI (Array.map (fun g -> g st) gs))
        | _ -> fun _ -> trap "vecbuild of non-vector")
    | Phi _ -> fun _ -> trap "phi executed outside block entry"
    | Barrier _ ->
        (* Barriers end a segment; they never appear in a segment body. *)
        fun _ -> trap "barrier executed as a body instruction"
    | Br _ | Cond_br _ | Ret ->
        fun _ -> trap "terminator executed as body instruction"
  in

  (* Per-edge phi moves: evaluated against the predecessor's environment,
     committed together (staged through the scratch arrays at run time). *)
  let scr_i = ref 0 and scr_f = ref 0 and scr_b = ref 0 in
  let mk_edge (src : block) (dst : block) : edge =
    let im = ref [] and fm = ref [] and bm = ref [] in
    List.iter
      (fun (pi : instr) ->
        match pi.op with
        | Phi { incoming; _ } -> (
            match List.find_opt (fun (b, _) -> b.bid = src.bid) incoming with
            | None ->
                im :=
                  (0, fun _ -> trap "phi has no incoming for predecessor")
                  :: !im
            | Some (_, v) -> (
                match kind_of pi with
                | Some (KInt s) -> im := (s, iget v) :: !im
                | Some (KFloat s) -> fm := (s, fget v) :: !fm
                | Some (KBox s) -> bm := (s, vget v) :: !bm
                | None -> ()))
        | _ -> ())
      dst.instrs;
    let im = Array.of_list (List.rev !im)
    and fm = Array.of_list (List.rev !fm)
    and bm = Array.of_list (List.rev !bm) in
    scr_i := max !scr_i (Array.length im);
    scr_f := max !scr_f (Array.length fm);
    scr_b := max !scr_b (Array.length bm);
    {
      e_dst = Hashtbl.find bidx dst.bid;
      im_dst = Array.map fst im;
      im_src = Array.map snd im;
      fm_dst = Array.map fst fm;
      fm_src = Array.map snd fm;
      bm_dst = Array.map fst bm;
      bm_src = Array.map snd bm;
    }
  in

  (* One block compiles to 1 + (barriers in block) segments: the body is
     cut at each barrier, non-final chunks terminate in [Tbarrier], the
     final chunk carries the block's real terminator. *)
  let compile_block (k : int) (b : block) : cseg list =
    let final_term =
      match b.term with
      | Some { op = Br target; _ } -> Tbr (mk_edge b target)
      | Some { op = Cond_br (c, t, e); _ } ->
          Tcond (iget c, mk_edge b t, mk_edge b e)
      | Some { op = Ret; _ } -> Tret
      | _ -> Ttrap "missing terminator"
    in
    let rec cut acc cur = function
      | [] -> List.rev ((List.rev cur, None) :: acc)
      | (i : instr) :: tl when (match i.op with Barrier _ -> true | _ -> false)
        ->
          cut ((List.rev cur, Some i) :: acc) [] tl
      | i :: tl -> cut acc (i :: cur) tl
    in
    let mk_seg (j : int) ((instrs : instr list), (bar : instr option)) : cseg =
      let body =
        List.filter_map
          (fun (i : instr) ->
            match i.op with Phi _ -> None | _ -> Some (compile_instr i))
          instrs
      in
      let body =
        (* Phis are only written by incoming edges; a phi in the entry
           block has no incoming edge and is malformed IR. *)
        if
          j = 0 && k = 0
          && List.exists
               (fun i -> match i.op with Phi _ -> true | _ -> false)
               instrs
        then (fun _ -> trap "phi in entry block") :: body
        else body
      in
      let cterm =
        match bar with
        | Some bi ->
            let bar = Hashtbl.find bar_index bi.iid in
            Tbarrier { bar; next = bar_entry.(bar) }
        | None -> final_term
      in
      let c_int = ref 0 and c_float = ref 0 and c_special = ref 0 in
      List.iter
        (fun (i : instr) ->
          match i.op with
          | Phi _ -> ()
          | _ ->
              let ci, cf, cs = op_cost i in
              c_int := !c_int + ci;
              c_float := !c_float + cf;
              c_special := !c_special + cs)
        instrs;
      {
        body = Array.of_list body;
        cterm;
        b_int = !c_int;
        b_float = !c_float;
        b_special = !c_special;
      }
    in
    List.mapi mk_seg (cut [] [] b.instrs)
  in
  let csegs =
    Array.of_list (List.concat (List.mapi compile_block fn.blocks))
  in
  assert (Array.length csegs = !n_segs);
  (* The same cut, kept as data: per segment its owning block, body
     instructions and terminating barrier (if any) — the lane compiler
     re-walks it to build the parallel [lsegs] array. *)
  let seg_descs : (block * instr list * instr option) array =
    let cut_block (b : block) =
      let rec go acc cur = function
        | [] -> List.rev ((b, List.rev cur, None) :: acc)
        | (i : instr) :: tl
          when (match i.op with Barrier _ -> true | _ -> false) ->
            go ((b, List.rev cur, Some i) :: acc) [] tl
        | i :: tl -> go acc (i :: cur) tl
      in
      go [] [] b.instrs
    in
    Array.of_list (List.concat_map cut_block fn.blocks)
  in
  assert (Array.length seg_descs = !n_segs);
  (* Spill plan for the region executor: give every value that is live
     across {e some} barrier one context column of its kind, then
     precompile each barrier's (env slot, column) copy lists. *)
  let wg, lanes =
    match regions with
    | Regions.Fallback _ -> (None, None)
    | Regions.Formed info ->
        let enumeration_matches =
          Array.length info.barriers = !n_bars
          && Array.for_all
               (fun (bi : instr) ->
                 match Hashtbl.find_opt bar_index bi.iid with
                 | Some _ -> true
                 | None -> false)
               info.barriers
        in
        if not enumeration_matches then (None, None)
        else begin
          let ctx_col : (int, int) Hashtbl.t = Hashtbl.create 16 in
          let ci = ref 0 and cf = ref 0 and cb = ref 0 in
          Array.iter
            (Array.iter (fun iid ->
                 if not (Hashtbl.mem ctx_col iid) then
                   match Hashtbl.find_opt kinds iid with
                   | Some (KInt _) ->
                       Hashtbl.replace ctx_col iid !ci;
                       incr ci
                   | Some (KFloat _) ->
                       Hashtbl.replace ctx_col iid !cf;
                       incr cf
                   | Some (KBox _) ->
                       Hashtbl.replace ctx_col iid !cb;
                       incr cb
                   | None -> ()))
            info.live_across;
          let n = !n_bars in
          let sp_i_env = Array.make n [||] and sp_i_ctx = Array.make n [||] in
          let sp_f_env = Array.make n [||] and sp_f_ctx = Array.make n [||] in
          let sp_b_env = Array.make n [||] and sp_b_ctx = Array.make n [||] in
          Array.iteri
            (fun j (bi : instr) ->
              let at = Hashtbl.find bar_index bi.iid in
              let ie = ref [] and fe = ref [] and be = ref [] in
              Array.iter
                (fun iid ->
                  match Hashtbl.find_opt kinds iid with
                  | Some (KInt s) ->
                      ie := (s, Hashtbl.find ctx_col iid) :: !ie
                  | Some (KFloat s) ->
                      fe := (s, Hashtbl.find ctx_col iid) :: !fe
                  | Some (KBox s) ->
                      be := (s, Hashtbl.find ctx_col iid) :: !be
                  | None -> ())
                info.live_across.(j);
              let fill env ctx l =
                let a = Array.of_list (List.rev l) in
                env.(at) <- Array.map fst a;
                ctx.(at) <- Array.map snd a
              in
              fill sp_i_env sp_i_ctx !ie;
              fill sp_f_env sp_f_ctx !fe;
              fill sp_b_env sp_b_ctx !be)
            info.barriers;
          let w =
            {
              bar_entry;
              sp_i_env;
              sp_i_ctx;
              sp_f_env;
              sp_f_ctx;
              sp_b_env;
              sp_b_ctx;
              ctx_i = !ci;
              ctx_f = !cf;
              ctx_b = !cb;
            }
          in
          let lanes =
            if Array.exists Regions.lane_ok info.lane_entries then
              Some
                (compile_lanes ~lw:lane_width ~kinds ~bidx ~bar_index
                   ~bar_entry ~seg_descs ~info ~ctx_col)
            else None
          in
          (Some w, lanes)
        end
  in
  {
    csegs;
    n_int = !ni;
    n_float = !nf;
    n_box = !nb;
    scr_int = !scr_i;
    scr_float = !scr_f;
    scr_box = !scr_b;
    wg;
    lanes;
  }

(* -- The compiled-engine hot loop ------------------------------------------- *)

let take_edge (st : wi_state) (e : edge) : int =
  let ni = Array.length e.im_dst in
  if ni > 0 then begin
    for k = 0 to ni - 1 do
      st.iscr.(k) <- e.im_src.(k) st
    done;
    for k = 0 to ni - 1 do
      st.ienv.(e.im_dst.(k)) <- st.iscr.(k)
    done
  end;
  let nf = Array.length e.fm_dst in
  if nf > 0 then begin
    for k = 0 to nf - 1 do
      st.fscr.(k) <- e.fm_src.(k) st
    done;
    for k = 0 to nf - 1 do
      st.fenv.(e.fm_dst.(k)) <- st.fscr.(k)
    done
  end;
  let nb = Array.length e.bm_dst in
  if nb > 0 then begin
    for k = 0 to nb - 1 do
      st.bscr.(k) <- e.bm_src.(k) st
    done;
    for k = 0 to nb - 1 do
      st.benv.(e.bm_dst.(k)) <- st.bscr.(k)
    done
  end;
  e.e_dst

let run_compiled (st : wi_state) (cf : cfunc) : unit =
  let segs = cf.csegs in
  let cur = ref 0 in
  let stats = st.stats in
  while !cur >= 0 do
    let b = segs.(!cur) in
    stats.Trace.int_ops <- stats.Trace.int_ops + b.b_int;
    stats.Trace.float_ops <- stats.Trace.float_ops + b.b_float;
    stats.Trace.special_ops <- stats.Trace.special_ops + b.b_special;
    let body = b.body in
    for k = 0 to Array.length body - 1 do
      body.(k) st
    done;
    cur :=
      (match b.cterm with
      | Tbr e -> take_edge st e
      | Tcond (g, t, e) ->
          st.stats.Trace.branches <- st.stats.Trace.branches + 1;
          if g st <> 0 then take_edge st t else take_edge st e
      | Tret -> -1
      | Tbarrier { bar = _; next } ->
          stats.Trace.barriers <- stats.Trace.barriers + 1;
          Effect.perform Barrier_hit;
          next
      | Ttrap m -> trap "%s" m)
  done

(* -- The region executor ------------------------------------------------------

   The runtime's wg-loop scheduler drives one work-item at a time through
   the current parallel region: [run_region] runs from segment [from]
   until the work-item either returns (result -1) or reaches a barrier
   (result = the barrier's dense index; the sweep continues the whole
   group at [cwg.bar_entry.(bar)] once every work-item arrived there).
   Values live across the boundary are copied between the shared slot
   environment and the work-item's row of the group's context matrices by
   [spill_save]/[spill_restore]. *)

let run_region (st : wi_state) (cf : cfunc) ~(from : int) : int =
  let segs = cf.csegs in
  let cur = ref from in
  let exitc = ref (-1) in
  let running = ref true in
  let stats = st.stats in
  while !running do
    let b = segs.(!cur) in
    stats.Trace.int_ops <- stats.Trace.int_ops + b.b_int;
    stats.Trace.float_ops <- stats.Trace.float_ops + b.b_float;
    stats.Trace.special_ops <- stats.Trace.special_ops + b.b_special;
    let body = b.body in
    for k = 0 to Array.length body - 1 do
      body.(k) st
    done;
    match b.cterm with
    | Tbr e -> cur := take_edge st e
    | Tcond (g, t, e) ->
        stats.Trace.branches <- stats.Trace.branches + 1;
        cur := (if g st <> 0 then take_edge st t else take_edge st e)
    | Tret -> running := false
    | Tbarrier { bar; next = _ } ->
        stats.Trace.barriers <- stats.Trace.barriers + 1;
        exitc := bar;
        running := false
    | Ttrap m -> trap "%s" m
  done;
  !exitc

let spill_save (st : wi_state) (w : cwg) ~(bar : int) ~(ictx : int array)
    ~(fctx : float array) ~(bctx : rv array) ~(flat : int) : unit =
  let env = w.sp_i_env.(bar) and col = w.sp_i_ctx.(bar) in
  let base = flat * w.ctx_i in
  for k = 0 to Array.length env - 1 do
    ictx.(base + col.(k)) <- st.ienv.(env.(k))
  done;
  let env = w.sp_f_env.(bar) and col = w.sp_f_ctx.(bar) in
  let base = flat * w.ctx_f in
  for k = 0 to Array.length env - 1 do
    fctx.(base + col.(k)) <- st.fenv.(env.(k))
  done;
  let env = w.sp_b_env.(bar) and col = w.sp_b_ctx.(bar) in
  let base = flat * w.ctx_b in
  for k = 0 to Array.length env - 1 do
    bctx.(base + col.(k)) <- st.benv.(env.(k))
  done

let spill_restore (st : wi_state) (w : cwg) ~(bar : int) ~(ictx : int array)
    ~(fctx : float array) ~(bctx : rv array) ~(flat : int) : unit =
  let env = w.sp_i_env.(bar) and col = w.sp_i_ctx.(bar) in
  let base = flat * w.ctx_i in
  for k = 0 to Array.length env - 1 do
    st.ienv.(env.(k)) <- ictx.(base + col.(k))
  done;
  let env = w.sp_f_env.(bar) and col = w.sp_f_ctx.(bar) in
  let base = flat * w.ctx_f in
  for k = 0 to Array.length env - 1 do
    st.fenv.(env.(k)) <- fctx.(base + col.(k))
  done;
  let env = w.sp_b_env.(bar) and col = w.sp_b_ctx.(bar) in
  let base = flat * w.ctx_b in
  for k = 0 to Array.length env - 1 do
    st.benv.(env.(k)) <- bctx.(base + col.(k))
  done

(* -- The lane-batched region executor (wg-vec) -------------------------------

   [run_lane_region] drives a whole batch of [nl] consecutive work-items
   through the current parallel region in one pass over the compiled lane
   segments; the group sweep advances [group-size / lane-width] times per
   region instead of [group-size] times. Costs are read from the parallel
   scalar segment and bumped once per batch, multiplied by the active lane
   count, so trace totals are bit-identical to the scalar paths. *)

let take_ledge (ls : lane_state) (e : ledge) : int =
  let lw = ls.lw and nl = ls.nl in
  (* Stage every move against the predecessor's columns... *)
  let nui = Array.length e.lu_im_dst in
  for k = 0 to nui - 1 do
    ls.luiscr.(k) <- e.lu_im_src.(k) ls
  done;
  let nuf = Array.length e.lu_fm_dst in
  for k = 0 to nuf - 1 do
    ls.lufscr.(k) <- e.lu_fm_src.(k) ls
  done;
  let nub = Array.length e.lu_bm_dst in
  for k = 0 to nub - 1 do
    ls.lubscr.(k) <- e.lu_bm_src.(k) ls
  done;
  let nvi = Array.length e.lv_im_dst in
  for k = 0 to nvi - 1 do
    let g = e.lv_im_src.(k) in
    let base = k * lw in
    for l = 0 to nl - 1 do
      ls.lviscr.(base + l) <- g ls l
    done
  done;
  let nvf = Array.length e.lv_fm_dst in
  for k = 0 to nvf - 1 do
    let g = e.lv_fm_src.(k) in
    let base = k * lw in
    for l = 0 to nl - 1 do
      ls.lvfscr.(base + l) <- g ls l
    done
  done;
  let nvb = Array.length e.lv_bm_dst in
  for k = 0 to nvb - 1 do
    let g = e.lv_bm_src.(k) in
    let base = k * lw in
    for l = 0 to nl - 1 do
      ls.lvbscr.(base + l) <- g ls l
    done
  done;
  (* ...then commit. *)
  for k = 0 to nui - 1 do
    ls.lienv.(e.lu_im_dst.(k)) <- ls.luiscr.(k)
  done;
  for k = 0 to nuf - 1 do
    ls.lfenv.(e.lu_fm_dst.(k)) <- ls.lufscr.(k)
  done;
  for k = 0 to nub - 1 do
    ls.lbenv.(e.lu_bm_dst.(k)) <- ls.lubscr.(k)
  done;
  for k = 0 to nvi - 1 do
    let d = e.lv_im_dst.(k) and base = k * lw in
    for l = 0 to nl - 1 do
      ls.lienv.(d + l) <- ls.lviscr.(base + l)
    done
  done;
  for k = 0 to nvf - 1 do
    let d = e.lv_fm_dst.(k) and base = k * lw in
    for l = 0 to nl - 1 do
      ls.lfenv.(d + l) <- ls.lvfscr.(base + l)
    done
  done;
  for k = 0 to nvb - 1 do
    let d = e.lv_bm_dst.(k) and base = k * lw in
    for l = 0 to nl - 1 do
      ls.lbenv.(d + l) <- ls.lvbscr.(base + l)
    done
  done;
  e.le_dst

let run_lane_region (ls : lane_state) (cf : cfunc) (ln : clanes)
    ~(from : int) : int =
  let segs = ln.lsegs and costs = cf.csegs in
  let cur = ref from in
  let exitc = ref (-1) in
  let running = ref true in
  let stats = ls.lstats in
  let nl = ls.nl in
  while !running do
    let si = !cur in
    let cb = costs.(si) in
    stats.Trace.int_ops <- stats.Trace.int_ops + (cb.b_int * nl);
    stats.Trace.float_ops <- stats.Trace.float_ops + (cb.b_float * nl);
    stats.Trace.special_ops <- stats.Trace.special_ops + (cb.b_special * nl);
    match segs.(si) with
    | None -> trap "lane executor entered an unvectorized segment"
    | Some sg -> (
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
        | LTtrap m -> trap "%s" m)
  done;
  !exitc

(* Lane spill save/restore against the same per-work-item context matrices
   as the scalar region executor ([cwg] columns): uniform values replicate
   their base column into every active row on save and read the batch's
   base row on restore (a group-uniform value is identical in every row by
   construction, whichever path wrote it); varying values copy one lane
   column per row. *)

let lane_spill_save (ls : lane_state) (w : cwg) (ln : clanes) ~(bar : int)
    ~(ictx : int array) ~(fctx : float array) ~(bctx : rv array) : unit =
  let bf = ls.base_flat and nl = ls.nl in
  let slots = ln.lsp_ui_slot.(bar) and cols = ln.lsp_ui_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let v = ls.lienv.(slots.(k)) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ictx.(((bf + l) * w.ctx_i) + c) <- v
    done
  done;
  let slots = ln.lsp_uf_slot.(bar) and cols = ln.lsp_uf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let v = ls.lfenv.(slots.(k)) and c = cols.(k) in
    for l = 0 to nl - 1 do
      fctx.(((bf + l) * w.ctx_f) + c) <- v
    done
  done;
  let slots = ln.lsp_ub_slot.(bar) and cols = ln.lsp_ub_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let v = ls.lbenv.(slots.(k)) and c = cols.(k) in
    for l = 0 to nl - 1 do
      bctx.(((bf + l) * w.ctx_b) + c) <- v
    done
  done;
  let slots = ln.lsp_vi_slot.(bar) and cols = ln.lsp_vi_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ictx.(((bf + l) * w.ctx_i) + c) <- ls.lienv.(s + l)
    done
  done;
  let slots = ln.lsp_vf_slot.(bar) and cols = ln.lsp_vf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      fctx.(((bf + l) * w.ctx_f) + c) <- ls.lfenv.(s + l)
    done
  done;
  let slots = ln.lsp_vb_slot.(bar) and cols = ln.lsp_vb_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      bctx.(((bf + l) * w.ctx_b) + c) <- ls.lbenv.(s + l)
    done
  done

let lane_spill_restore (ls : lane_state) (w : cwg) (ln : clanes) ~(bar : int)
    ~(ictx : int array) ~(fctx : float array) ~(bctx : rv array) : unit =
  let bf = ls.base_flat and nl = ls.nl in
  let slots = ln.lsp_ui_slot.(bar) and cols = ln.lsp_ui_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    ls.lienv.(slots.(k)) <- ictx.((bf * w.ctx_i) + cols.(k))
  done;
  let slots = ln.lsp_uf_slot.(bar) and cols = ln.lsp_uf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    ls.lfenv.(slots.(k)) <- fctx.((bf * w.ctx_f) + cols.(k))
  done;
  let slots = ln.lsp_ub_slot.(bar) and cols = ln.lsp_ub_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    ls.lbenv.(slots.(k)) <- bctx.((bf * w.ctx_b) + cols.(k))
  done;
  let slots = ln.lsp_vi_slot.(bar) and cols = ln.lsp_vi_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ls.lienv.(s + l) <- ictx.(((bf + l) * w.ctx_i) + c)
    done
  done;
  let slots = ln.lsp_vf_slot.(bar) and cols = ln.lsp_vf_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ls.lfenv.(s + l) <- fctx.(((bf + l) * w.ctx_f) + c)
    done
  done;
  let slots = ln.lsp_vb_slot.(bar) and cols = ln.lsp_vb_ctx.(bar) in
  for k = 0 to Array.length slots - 1 do
    let s = slots.(k) and c = cols.(k) in
    for l = 0 to nl - 1 do
      ls.lbenv.(s + l) <- bctx.(((bf + l) * w.ctx_b) + c)
    done
  done

(** Re-aim the lane state at the batch of [nl] work-items starting at flat
    id [base] of the group currently held in [lctx.grp]. *)
let reset_lane_batch (ls : lane_state) ~(base : int) ~(nl : int) : unit =
  ls.base_flat <- base;
  ls.nl <- nl;
  let lsz = ls.lctx.lsz and grp = ls.lctx.grp in
  for l = 0 to nl - 1 do
    let flat = base + l in
    let lx = flat mod lsz.(0)
    and ly = flat / lsz.(0) mod lsz.(1)
    and lz = flat / (lsz.(0) * lsz.(1)) in
    ls.llid.(0).(l) <- lx;
    ls.llid.(1).(l) <- ly;
    ls.llid.(2).(l) <- lz;
    ls.lgid.(0).(l) <- (grp.(0) * lsz.(0)) + lx;
    ls.lgid.(1).(l) <- (grp.(1) * lsz.(1)) + ly;
    ls.lgid.(2).(l) <- (grp.(2) * lsz.(2)) + lz
  done

(* -- Public interface -------------------------------------------------------- *)

(* Default lane width: 8, dropping to 4 for kernels with many live slots
   (a wide batch of a slot-heavy kernel blows the L1-resident working set
   of the lane environments). [GROVER_LANE_WIDTH] overrides, clamped to
   1..16. *)
(** The [GROVER_LANE_WIDTH] override, clamped to 1..16; [None] when unset,
    empty, or unparseable (which warns — see {!warn_env}). *)
let lane_width_env () : int option =
  match Sys.getenv_opt "GROVER_LANE_WIDTH" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some w when w >= 1 -> Some (min w 16)
      | _ ->
          warn_env "GROVER_LANE_WIDTH"
            "bad GROVER_LANE_WIDTH %S (expected an integer >= 1); using the \
             kernel-size default"
            s;
          None)

let lane_width_for (fn : func) : int =
  let default () =
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
  in
  match lane_width_env () with Some w -> w | None -> default ()

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
  let has_barrier =
    fold_instrs
      (fun acc i -> acc || match i.op with Barrier _ -> true | _ -> false)
      false fn
  in
  let regions = Regions.form fn in
  let code =
    match engine with
    | Compiled -> Some (compile_fn ~lane_width fn regions)
    | Tree -> None
  in
  { fn; slots; n_slots = !n; local_allocas; has_barrier; regions; code }

let engine_of (c : compiled) : engine =
  match c.code with Some _ -> Compiled | None -> Tree

(** Lane width the kernel was compiled for; 1 when no lane-batched code
    exists (tree engine, fiber fallback, or no lane-capable region). *)
let lane_width_of (c : compiled) : int =
  match c.code with Some { lanes = Some ln; _ } -> ln.lwidth | _ -> 1

(** Per-region-entry lane capability as the lane compiler refined it: the
    static {!Regions.lane_entries} verdict, narrowed by whatever the
    compiler itself had to reject ([Unbatchable] segments). [None] when no
    lane code exists at all (tree engine, or no statically lane-capable
    region). *)
let lane_entry_flags (c : compiled) : bool array option =
  match c.code with
  | Some { lanes = Some ln; _ } -> Some (Array.copy ln.lentry)
  | _ -> None

let make_state (c : compiled) ~(args : rv array) ~(ctx : wi_ctx)
    ~(stats : Trace.wg_stats) ~(local_bufs : (int, Memory.buffer) Hashtbl.t)
    ~(mem : Memory.t) ~(queue : int) : wi_state =
  match c.code with
  | Some cf ->
      {
        c;
        env = [||];
        ienv = Array.make cf.n_int 0;
        fenv = Array.make cf.n_float 0.0;
        benv = Array.make cf.n_box (RInt 0);
        iscr = Array.make cf.scr_int 0;
        fscr = Array.make cf.scr_float 0.0;
        bscr = Array.make cf.scr_box (RInt 0);
        args;
        ctx;
        stats;
        local_bufs;
        mem;
        queue;
        private_offset = 0;
        san = None;
      }
  | None ->
      {
        c;
        env = Array.make c.n_slots (RInt 0);
        ienv = [||];
        fenv = [||];
        benv = [||];
        iscr = [||];
        fscr = [||];
        bscr = [||];
        args;
        ctx;
        stats;
        local_bufs;
        mem;
        queue;
        private_offset = 0;
        san = None;
      }

(** Fresh lane-batched execution state, [None] unless the kernel was
    closure-compiled with at least one lane-capable region. Shares the
    group context, argument row and stats sink with the scalar states so
    mixed lane/scalar execution of one launch observes the same group. *)
let make_lane_state (c : compiled) ~(ctx : wi_ctx) ~(args : rv array)
    ~(stats : Trace.wg_stats) ~(local_bufs : (int, Memory.buffer) Hashtbl.t) :
    lane_state option =
  match c.code with
  | Some ({ lanes = Some ln; _ } as cf) ->
      let lw = ln.lwidth in
      Some
        {
          lw;
          nl = 0;
          base_flat = 0;
          lienv = Array.make (max 1 (cf.n_int * lw)) 0;
          lfenv = Array.make (max 1 (cf.n_float * lw)) 0.0;
          lbenv = Array.make (max 1 (cf.n_box * lw)) (RInt 0);
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
          lctx = ctx;
          largs = args;
          lstats = stats;
          llocal = local_bufs;
          lsan = None;
        }
  | _ -> None

(** Re-aim a pooled state at work-item [flat] of the group currently held
    in [st.ctx.grp]: recompute [lid]/[gid] in place and rewind the private
    bump allocator. Slot arrays are deliberately {e not} cleared — SSA
    dominance guarantees every use is preceded by a def on any execution
    path, so a stale slot from the previous work-item is unobservable. *)
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

(** [advance_item st] = [reset_item st ~flat:(st.ctx.flat_lid + 1)], but
    by carry-propagating increments instead of the div/mod chain — the
    sweep loops of the fiberless and wg-loop schedulers visit work-items
    in flat order, so the full recomputation is only needed at [flat = 0]. *)
let advance_item (st : wi_state) : unit =
  let ctx = st.ctx in
  let lid = ctx.lid and gid = ctx.gid and lsz = ctx.lsz in
  ctx.flat_lid <- ctx.flat_lid + 1;
  st.private_offset <- 0;
  let x = lid.(0) + 1 in
  if x < lsz.(0) then begin
    lid.(0) <- x;
    gid.(0) <- gid.(0) + 1
  end
  else begin
    lid.(0) <- 0;
    gid.(0) <- gid.(0) - lsz.(0) + 1;
    let y = lid.(1) + 1 in
    if y < lsz.(1) then begin
      lid.(1) <- y;
      gid.(1) <- gid.(1) + 1
    end
    else begin
      lid.(1) <- 0;
      gid.(1) <- gid.(1) - lsz.(1) + 1;
      lid.(2) <- lid.(2) + 1;
      gid.(2) <- gid.(2) + 1
    end
  end

let run_workitem (st : wi_state) : unit =
  match st.c.code with Some cf -> run_compiled st cf | None -> run_tree st
