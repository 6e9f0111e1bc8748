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
      ({!Grover_ir.Regions}). Lane code runs each work-group of up to
      {!max_lane_width} work-items as one batch, its regions in turn, so
      the values that cross a barrier stay in the batch's lane slots. A
      kernel has lane code only if every region runs W-wide.
    - {b Tree}: the original tree-walking reference engine, kept as the
      oracle for the differential test suite and run only by the fiber
      path ([~force_path:Runtime.Fiber] for a launch,
      [GROVER_FORCE_PATH=fiber] for a process). Each work-item runs as an
      OCaml 5 fiber; hitting a barrier performs [Barrier_hit], the group
      scheduler parks the continuation and resumes every work-item of the
      group once all of them have arrived. Kernels whose barriers do not
      form regions (divergent barriers) or that have a region lane
      batches cannot run (a divergent branch outside a maskable diamond,
      a private alloca) have no lane code and always run here, as does
      every work-group larger than {!max_lane_width}.

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
   Phi moves ride on CFG edges with evaluate-all-then-commit semantics:
   an edge whose moves read no slot they write moves in place, any other
   edge stages through scratch arrays. *)

(** Lane-batched execution state: one state executes the batch of a
    whole work-group, up to W = {!max_lane_width} work-items, per closure
    invocation over struct-of-arrays slots. Every value-producing
    instruction keeps its scalar slot number [s]; the lane environments
    store slot [s] in the columns [s*W .. s*W+W-1]. A value the
    uniformity analysis proved group-uniform is computed once per batch
    and lives in column 0 of its slot ([s*W]); varying values occupy one
    column per lane. Lane [l] is the work-item of flat local id [l]. *)
type lane_state = {
  mutable nl : int;
      (** active lanes: the group's work-items, or 1 while a uniform
          instruction runs *)
  lienv : int array;  (** [n_int] slots x W lanes *)
  lfenv : float array;
  lbenv : rv array;
  (* Phi-move staging of the edges whose moves conflict, split by
     uniformity: uniform moves stage one value, varying moves stage W
     columns per move. *)
  luiscr : int array;
  lufscr : float array;
  lubscr : rv array;
  lviscr : int array;  (** varying move [k], lane [l] at [k*W + l] *)
  lvfscr : float array;
  lvbscr : rv array;
  lpred : int array;
      (** per-lane predicate of the masked diamond being executed: 1 =
          the lane takes the then arm, 0 = the else arm. Written by the
          diamond's predicate closure, immutable while the arms run
          (arms hold no branches or calls, so nothing re-enters a
          diamond mid-flight). *)
  mutable lnthen : int;
      (** lanes (of the active [nl]) whose predicate is 1 — the then
          arm's population count; the else arm's is [nl - lnthen] *)
  llid : int array array;  (** 3 dims x W: per-lane local ids *)
  lgid : int array array;  (** 3 dims x W: per-lane global ids *)
  lctx : wi_ctx;
      (** shares [grp]/[lsz]/[gsz]/[ngr] with the group runner; its
          [lid]/[gid] fields are unused here (lanes read [llid]/[lgid]) *)
  largs : rv array;
  lstats : Trace.wg_stats;
  llocal : (int, Memory.buffer) Hashtbl.t;  (** alloca iid -> group buffer *)
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
      (** barrier-region formation result, for path reporting *)
  code : clanes option;
      (** [Some] iff {!Regions.form} verified every barrier
          group-uniform (trivially for barrier-free code) and every
          region runs W-wide; [None] runs the tree engine under fibers *)
}

(** The closure-compiled kernel. Basic blocks are split at barriers into
    segments: index 0 is the kernel entry, each block's segments are
    contiguous in block order. *)
and clanes = {
  lsegs : lseg array;
  n_int : int;  (** slots per kind *)
  n_float : int;
  n_box : int;
  lscr_ui : int;  (** phi staging widths: uniform moves (scalars)... *)
  lscr_uf : int;
  lscr_ub : int;
  lscr_vi : int;  (** ...and varying moves (x W lane columns) *)
  lscr_vf : int;
  lscr_vb : int;
  bar_entry : int array;  (** barrier index -> continuation segment *)
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
          condition is group-uniform *)
  | LTret
  | LTbarrier of { lbar : int; lnext : int }
      (** barrier [lbar] (dense {!Regions} index); [lnext] is the
          continuation segment right after it. The region executor
          returns [lbar] to the group sweep. *)
  | LTtrap of string

and ledge = {
  le_dst : int;  (** dense index of the successor block's entry segment *)
  le_stage : (lane_state -> unit) array;
      (** one closure per phi move, over whole columns: in place, straight
          into its destination slot; on an edge whose moves conflict, into
          scratch — a uniform move stages one value at [k], a varying one
          [nl] values at [k * W]... *)
  (* ...then commit, per kind, to destination slot bases ([slot * W]);
     empty on an in-place edge *)
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

(* The lane engine's side of the same access stream. The dev profile
   compiles with [-opaque], so a call into [Trace] or [Memory] is never
   inlined (and a float crossing one is boxed): a lane batch stores its
   records with one [Trace.record_batch] call per record, checks its
   indices and moves the elements' components here (see [lv_access]). Per
   lane, [lane_check] hands the access to the sanitizer, if one is
   installed, and checks the index, calling out only to raise
   [Memory.check]'s out-of-bounds error. The work-item id is the lane
   index; each lane's events land in its own program
   order, which is the only ordering the memory simulator and the
   sanitizer depend on. *)
let[@inline] lane_check (ls : lane_state) (b : Memory.buffer) (idx : int)
    ~(wi : int) ~(is_write : bool) ~(loc : Grover_support.Loc.t) : unit =
  (match ls.lsan with
  | None -> ()
  | Some s -> Sanitize.access s ~buf:b ~idx ~is_write ~wi ~loc);
  if idx < 0 || idx >= b.Memory.n then Memory.check b idx

(* Local id [(x, y, z)] of lane [l] of a group [lsx] by [lsy] by any,
   lanes in flat order, x fastest. *)
let lane_lid ~(lsx : int) ~(lsy : int) (l : int) : int * int * int =
  if l = 0 then (0, 0, 0) else (l mod lsx, l / lsx mod lsy, l / (lsx * lsy))

(* The affine form [i0 + sx·lx + sy·ly + sz·lz] that the index column
   [col.(io + l)] takes over the run of lanes [f .. last], if it is
   affine there at all: [sx] from two neighbours in a row, [sy] from the
   run's first step into the next row of a plane and [sz] from its first
   step into the next plane, each correcting for the strides already
   known. A stride along a dimension the run never moves in is 0. Over a
   whole group these are the differences at lanes 1, [lsx] and
   [lsx * lsy]. [affine_column] then checks every lane. *)
let run_form (col : int array) (io : int) ~(lsx : int) ~(lsy : int) ~(f : int)
    ~(last : int) : int * int * int * int =
  let at l = col.(io + l) in
  let x0, y0, z0 = lane_lid ~lsx ~lsy f in
  let row_end = f + lsx - 1 - x0 and plane_end = f + (lsx * lsy) - 1 - x0 - (lsx * y0) in
  let sx =
    if f < row_end && f < last then at (f + 1) - at f
    else if lsx > 1 && row_end + 2 <= last then at (row_end + 2) - at (row_end + 1)
    else 0
  in
  let ye = if row_end = plane_end then row_end + lsx else row_end in
  let sy = if lsy > 1 && ye < last then at (ye + 1) - at ye + (sx * (lsx - 1)) else 0 in
  let sz =
    if plane_end < last then
      at (plane_end + 1) - at plane_end + (sx * (lsx - 1)) + (sy * (lsy - 1))
    else 0
  in
  (at f - (sx * x0) - (sy * y0) - (sz * z0), sx, sy, sz)

(* Is [col.(io + l)] exactly [i0 + sx·lx + sy·ly + sz·lz] at every lane
   [l] of the run [f .. last]? Checked one row segment at a time. *)
let affine_column (col : int array) (io : int) ~(lsx : int) ~(lsy : int) ~(f : int)
    ~(last : int) (i0 : int) (sx : int) (sy : int) (sz : int) : bool =
  let x0, y0, z0 = lane_lid ~lsx ~lsy f in
  let ok = ref true and l = ref f and x = ref x0 and y = ref y0 and z = ref z0 in
  while !l <= last do
    let row_end = !l + lsx - 1 - !x in
    let stop = if last < row_end then last else row_end in
    let e = ref (i0 + (sx * !x) + (sy * !y) + (sz * !z)) in
    for j = io + !l to io + stop do
      if col.(j) <> !e then ok := false;
      e := !e + sx
    done;
    l := stop + 1;
    x := 0;
    if !y + 1 < lsy then incr y
    else begin
      y := 0;
      incr z
    end
  done;
  !ok

(* The lanes [f .. f + c - 1] of [0 .. nl - 1] whose predicate in [pr] is
   [on], when they are one run; [c] = 0 when none is or they are not. *)
let active_run (pr : int array) ~(on : int) ~(nl : int) : int * int =
  let f = ref 0 in
  while !f < nl && pr.(!f) <> on do incr f done;
  let e = ref !f in
  while !e < nl && pr.(!e) = on do incr e done;
  let g = ref !e in
  while !g < nl && pr.(!g) <> on do incr g done;
  (!f, if !g < nl then 0 else !e - !f)

(* Copy the [n] components of element [idx] into the lane columns
   [p + j * lw] of [fe] (when [fl]) or [ie], or, for a store, from those
   columns into the element. *)
let[@inline] lane_move (b : Memory.buffer) (idx : int) ~(is_write : bool)
    ~(fl : bool) (fe : float array) (ie : int array) ~(p : int) ~(lw : int)
    ~(n : int) : unit =
  let k = idx * b.Memory.lanes in
  match b.Memory.st with
  | Memory.F a ->
      for j = 0 to n - 1 do
        let q = p + (j * lw) in
        if not is_write then
          if fl then fe.(q) <- a.(k + j) else ie.(q) <- int_of_float a.(k + j)
        else if fl then a.(k + j) <- fe.(q)
        else a.(k + j) <- float_of_int ie.(q)
      done
  | Memory.I a ->
      for j = 0 to n - 1 do
        let q = p + (j * lw) in
        if not is_write then
          if fl then fe.(q) <- float_of_int a.(k + j) else ie.(q) <- a.(k + j)
        else if fl then a.(k + j) <- int_of_float fe.(q)
        else a.(k + j) <- ie.(q)
      done

(* The batch move of an access whose index is [i0 + sx·lx + sy·ly +
   sz·lz] over the run of lanes [f .. last]: lane [l]'s components move
   between its element and the lane columns [c + j * lw + l * cs], as
   [lane_move] moves them. The index is monotone along a row segment, so
   the segment's two ends bound it. If every segment is inside [0, b.n)
   (and the access covers no component past its element), the elements
   move with one loop per component and segment, [b.lanes * sx] storage
   slots apart, without per-lane checks, and the result is [true]; else
   nothing moves and the result is [false]. A slot's lanes run in
   ascending order, so the last lane's store wins, as per lane. A float
   row with slot stride 1 is an [Array.blit]; an int one stays a loop,
   since blitting into an int array outside the minor heap writes
   through [caml_modify]. *)
let batch_move (b : Memory.buffer) ~(is_write : bool) ~(fl : bool) (fe : float array)
    (ie : int array) ~(c : int) ~(cs : int) ~(lw : int) ~(n : int) ~(lsx : int) ~(lsy : int)
    ~(f : int) ~(last : int) (i0 : int) (sx : int) (sy : int) (sz : int) : bool =
  let bn = b.Memory.n and bl = b.Memory.lanes in
  let d = bl * sx and x0, y0, z0 = lane_lid ~lsx ~lsy f in
  let er0 = i0 + (sy * y0) + (sz * z0) and plane_step = sz - (sy * (lsy - 1)) in
  let ok = ref (n <= bl) in
  (* Pass 0 checks the segments, pass 1 moves them: one walk, so the
     indices moved without checks are the ones checked. It steps from
     row to row as [affine_column] does: a segment runs from lane [l], at
     [x] in its row, to the row's end or [last], and [er] is the index
     at [x = 0] of that row. *)
  for pass = 0 to 1 do
    let l = ref f and x = ref x0 and y = ref y0 and er = ref er0 in
    while !ok && !l <= last do
      let l0 = !l in
      let row_end = l0 + lsx - 1 - !x in
      let stop = if last < row_end then last else row_end in
      let e = !er + (sx * !x) and len = stop - l0 + 1 in
      (if pass = 0 then begin
         let e' = e + (sx * (len - 1)) in
         if e < 0 || e >= bn || e' < 0 || e' >= bn then ok := false
       end
       else
         match b.Memory.st with
         | Memory.F a when fl ->
             for j = 0 to n - 1 do
               let k = (e * bl) + j and q = c + (j * lw) + (l0 * cs) in
               if d = 1 && cs = 1 then
                 if is_write then Array.blit fe q a k len else Array.blit a k fe q len
               else if is_write then
                 for t = 0 to len - 1 do
                   Array.unsafe_set a (k + (t * d)) (Array.unsafe_get fe (q + (t * cs)))
                 done
               else
                 for t = 0 to len - 1 do
                   Array.unsafe_set fe (q + (t * cs)) (Array.unsafe_get a (k + (t * d)))
                 done
             done
         | Memory.I a when not fl ->
             for j = 0 to n - 1 do
               let k = (e * bl) + j and q = c + (j * lw) + (l0 * cs) in
               if is_write then
                 for t = 0 to len - 1 do
                   Array.unsafe_set a (k + (t * d)) (Array.unsafe_get ie (q + (t * cs)))
                 done
               else
                 for t = 0 to len - 1 do
                   Array.unsafe_set ie (q + (t * cs)) (Array.unsafe_get a (k + (t * d)))
                 done
             done
         | _ ->
             (* an int <-> float conversion *)
             for t = 0 to len - 1 do
               lane_move b (e + (t * sx)) ~is_write ~fl fe ie ~p:(c + ((l0 + t) * cs)) ~lw ~n
             done);
      l := stop + 1;
      x := 0;
      if !y + 1 < lsy then begin
        incr y;
        er := !er + sy
      end
      else begin
        y := 0;
        er := !er + plane_step
      end
    done
  done;
  !ok

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
      (* private arrays live in the private address region at the
         work-item's bump offset; the data array is fresh per allocation *)
      let b =
        Memory.alloc_at st.mem ~space:Private
          ~base_addr:(0x0000_1000 + st.private_offset) elem count
      in
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

(** The widest lane batch, and the width every kernel's lane code is
    compiled for: lane code runs work-groups of up to this many
    work-items, each as one batch (pocl's whole-group work-item loop). *)
let max_lane_width = 256

(* Lane-batched compilation over the segment layout {!compile_fn} builds:
   each closure advances the batch of a whole work-group, up to [lw]
   work-items, over struct-of-arrays columns. Uniform values (per the
   {!Divergence} fixpoint) are computed once per batch into column 0 of
   their slot; varying values loop over the active lanes. {!compile_fn}
   compiles only kernels whose every region {!Regions} lets run as a lane
   batch, so no reachable code holds a private alloca or a divergent
   branch outside a classified diamond. *)
let compile_lanes ~(kinds : (int, kind) Hashtbl.t) ~(n_slots : int * int * int)
    ~(bidx : (int, int) Hashtbl.t) ~(bar_index : (int, int) Hashtbl.t)
    ~(bar_entry : int array) ~(seg_descs : (block * instr list * instr option) array)
    ~(info : Regions.info) : clanes =
  let lw = max_lane_width in
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

  (* Operand classification for the direct loops below. An operand is
     either a varying slot read at a compile-time base offset (the common
     case in address arithmetic), or hoistable — the same value for every
     lane of a batch (constants, kernel arguments, uniform slots), read
     once at batch entry instead of per lane. Only the op and operand
     shapes that the suite's launches run have a direct loop (DESIGN
     §4k); any other shape takes the generic closure-per-operand arm. *)
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
     computation and every float4 lane. The shapes that the suite's
     launches run get direct loops with direct array reads and inline
     operators; every other shape calls the resolved function through
     one getter per operand. *)
  let lv_ibin t op (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    (* an Add or Mul whose only varying slot is its second operand swaps
       its operands, so one slot x hoist loop serves both orders *)
    let oa, ob =
      match (op, ivar_slot oa, ivar_slot ob) with
      | (Add | Mul), None, Some _ -> (ob, oa)
      | _ -> (oa, ob)
    in
    match (op, ivar_slot oa, ivar_slot ob, ihoist ob) with
    | Add, Some ao, Some bo, _ ->
        fun ls ->
          let ie = ls.lienv in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- ie.(ao + l) + ie.(bo + l)
          done
    | Add, Some ao, _, Some hb ->
        fun ls ->
          let ie = ls.lienv and y = hb ls in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- ie.(ao + l) + y
          done
    | Mul, Some ao, _, Some hb ->
        fun ls ->
          let ie = ls.lienv and y = hb ls in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- ie.(ao + l) * y
          done
    | Sub, Some ao, _, Some hb ->
        fun ls ->
          let ie = ls.lienv and y = hb ls in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- ie.(ao + l) - y
          done
    | _ ->
        let f = int_binop_fn t op and ga = lv_iget oa and gb = lv_iget ob in
        fun ls ->
          for l = 0 to ls.nl - 1 do
            ls.lienv.(dst + l) <- f (ga ls l) (gb ls l)
          done
  in
  let lv_icmp t c (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    let f = icmp_fn t c in
    match (ivar_slot oa, ivar_slot ob, ihoist ob) with
    | Some ao, Some bo, _ ->
        fun ls ->
          let ie = ls.lienv in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- (if f ie.(ao + l) ie.(bo + l) then 1 else 0)
          done
    | Some ao, _, Some hb ->
        fun ls ->
          let ie = ls.lienv and y = hb ls in
          for l = 0 to ls.nl - 1 do
            ie.(dst + l) <- (if f ie.(ao + l) y then 1 else 0)
          done
    | _ ->
        let ga = lv_iget oa and gb = lv_iget ob in
        fun ls ->
          for l = 0 to ls.nl - 1 do
            ls.lienv.(dst + l) <- (if f (ga ls l) (gb ls l) then 1 else 0)
          done
  in
  let lv_fcmp c (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    let f = fcmp_fn c and ga = lv_fget oa and gb = lv_fget ob in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        ls.lienv.(dst + l) <- (if f (ga ls l) (gb ls l) then 1 else 0)
      done
  in
  let lv_isel (oc : opnd) (oa : opnd) (ob : opnd) (dst : int) :
      lane_state -> unit =
    let gc = lv_iget oc and ga = lv_iget oa and gb = lv_iget ob in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        ls.lienv.(dst + l) <- (if gc ls l <> 0 then ga ls l else gb ls l)
      done
  in
  let lv_fsel (oc : opnd) (oa : opnd) (ob : opnd) (dst : int) :
      lane_state -> unit =
    let gc = lv_iget oc and ga = lv_fget oa and gb = lv_fget ob in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        ls.lfenv.(dst + l) <- (if gc ls l <> 0 then ga ls l else gb ls l)
      done
  in

  let lv_fbin op (oa : opnd) (ob : opnd) (dst : int) : lane_state -> unit =
    match (op, fvar_slot oa, fvar_slot ob, fhoist oa) with
    | Fadd, Some ao, Some bo, _ ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- fe.(ao + l) +. fe.(bo + l)
          done
    | Fsub, Some ao, Some bo, _ ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- fe.(ao + l) -. fe.(bo + l)
          done
    | Fmul, Some ao, Some bo, _ ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- fe.(ao + l) *. fe.(bo + l)
          done
    | Fadd, _, Some bo, Some ha ->
        fun ls ->
          let fe = ls.lfenv and x = ha ls in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- x +. fe.(bo + l)
          done
    | Fmul, _, Some bo, Some ha ->
        fun ls ->
          let fe = ls.lfenv and x = ha ls in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- x *. fe.(bo + l)
          done
    | _ ->
        let f = float_binop_fn op and ga = lv_fget oa and gb = lv_fget ob in
        fun ls ->
          for l = 0 to ls.nl - 1 do
            ls.lfenv.(dst + l) <- f (ga ls l) (gb ls l)
          done
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
     compile time. F32 rsqrt on a varying slot gets a direct loop; the
     rest call the resolved scalar function per lane. *)
  let lv_callc callee ~(is_float : bool) (ops : opnd list) (dst : int) :
      lane_state -> unit =
    match (callee, is_float, List.map fvar_slot ops) with
    | ("rsqrt" | "native_rsqrt"), true, [ Some a ] ->
        fun ls ->
          let fe = ls.lfenv in
          for l = 0 to ls.nl - 1 do
            fe.(dst + l) <- 1.0 /. Float.sqrt fe.(a + l)
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

  (* Loads and stores: one trace record per access of a batch, or one per
     active lane (a vector element is one access), then every component
     moves between the element and the lane columns [c + j * lw + l * cs]
     of the float ([fl]) or int environment ([cs] = 0: a batch-uniform
     stored value, read from its base column). [on] >= 0 guards a masked
     arm: only lanes whose predicate equals [on] access, so an inactive
     lane never moves, records or traps, whatever its index.

     A batch-uniform buffer indexed by an int slot takes one inline loop.
     The buffer's base and width and the access's info word are resolved
     once per batch. Lane [l] reads its index at [io + l * stride]
     (stride 0: a uniform slot, such as NBody's [sh[j]]). The batch (a
     load or store is never uniform, so it holds the whole group)
     accesses from the run of lanes [f .. last]: all of them, or in a
     masked arm its active lanes when they are consecutive
     ([active_run]). If the index column is [i0 + sx·lx + sy·ly + sz·lz]
     over that run ([run_form], [affine_column]), its elements move as
     one batch ([batch_move], counted in [Trace.batch_moves]) when no
     sanitizer is installed and every row segment is in bounds;
     otherwise the lanes check and move one by one. Either way the
     access is stored after the move as one record of those lanes, so a
     trap leaves nothing recorded. Any other access (a masked arm whose
     active lanes are not one run, an index that is not affine) stores
     one one-lane record per active lane. A per-lane buffer, a constant or
     argument index, and a constant or argument stored value take
     [each], which reads them through per-lane getters and records per
     lane with [Trace.record]. *)
  let each ~(on : int) ~(is_write : bool) (i : instr) (ptr : value)
      (index : value) (move : lane_state -> Memory.buffer -> int -> int -> unit)
      : lane_state -> unit =
    let gp = lv_bufget (op ptr) and gi = lv_iget (op index) and loc = i.iloc in
    fun ls ->
      for l = 0 to ls.nl - 1 do
        if on < 0 || ls.lpred.(l) = on then begin
          let b = gp ls l and idx = gi ls l in
          Trace.record ls.lstats ~addr:(Memory.addr_of b idx)
            ~bytes:b.Memory.elem_bytes ~is_write ~space:b.Memory.space ~wi:l;
          lane_check ls b idx ~wi:l ~is_write ~loc;
          move ls b idx l
        end
      done
  in
  let lv_access ~(on : int) ~(is_write : bool) (i : instr) (ptr : value)
      (index : value) (k : kind) ~(cs : int) : lane_state -> unit =
    let fl, c, n =
      match k with
      | KFloat d -> (true, d * lw, 1)
      | KInt d -> (false, d * lw, 1)
      | KFvec (d, n) -> (true, d * lw, n)
      | KIvec (d, n) -> (false, d * lw, n)
      | KBox _ -> invalid_arg "lv_access: a pointer has no lane columns"
    in
    match (buf_hoist (op ptr), op index) with
    | Some hb, Oi (s, vr) ->
        let io = s * lw and stride = Bool.to_int vr and loc = i.iloc in
        fun ls ->
          let b = hb ls and st = ls.lstats and nl = ls.nl in
          let base = b.Memory.base_addr and w = b.Memory.elem_bytes in
          let info = Trace.info ~bytes:w ~space:b.Memory.space ~is_write in
          let ie = ls.lienv and fe = ls.lfenv and pr = ls.lpred in
          let f, nr = if on < 0 then (0, nl) else active_run pr ~on ~nl in
          let last = f + nr - 1 and lsx = ls.lctx.lsz.(0) and lsy = ls.lctx.lsz.(1) in
          let i0, sx, sy, sz =
            if nr < 2 then (0, 0, 0, 0)
            else if stride = 0 then (ie.(io), 0, 0, 0)
            else run_form ie io ~lsx ~lsy ~f ~last
          in
          if nr > 1 && (stride = 0 || affine_column ie io ~lsx ~lsy ~f ~last i0 sx sy sz)
          then begin
            let moved =
              match ls.lsan with
              | None -> batch_move b ~is_write ~fl fe ie ~c ~cs ~lw ~n ~lsx ~lsy ~f ~last i0 sx sy sz
              | Some _ -> false
            in
            if moved then st.Trace.batch_moves <- st.Trace.batch_moves + 1
            else
              for l = f to last do
                let idx = ie.(io + (l * stride)) in
                lane_check ls b idx ~wi:l ~is_write ~loc;
                lane_move b idx ~is_write ~fl fe ie ~p:(c + (l * cs)) ~lw ~n
              done;
            Trace.record_batch st ~first:f ~lanes:nr ~info ~base:(base + (i0 * w))
              ~cx:(sx * w) ~cy:(sy * w) ~cz:(sz * w)
          end
          else
            for l = 0 to nl - 1 do
              if on < 0 || pr.(l) = on then begin
                let idx = ie.(io + (l * stride)) in
                Trace.record_batch st ~first:l ~lanes:1 ~info ~base:(base + (idx * w))
                  ~cx:0 ~cy:0 ~cz:0;
                lane_check ls b idx ~wi:l ~is_write ~loc;
                lane_move b idx ~is_write ~fl fe ie ~p:(c + (l * cs)) ~lw ~n
              end
            done
    | _ ->
        each ~on ~is_write i ptr index (fun ls b idx l ->
            lane_move b idx ~is_write ~fl ls.lfenv ls.lienv
              ~p:(c + (l * cs)) ~lw ~n)
  in
  let lv_load ~(on : int) (i : instr) (ptr : value) (index : value) :
      lane_state -> unit =
    match kind_of i with
    | Some ((KFloat _ | KInt _ | KFvec _ | KIvec _) as k) ->
        lv_access ~on ~is_write:false i ptr index k ~cs:1
    | _ -> fun _ -> trap "load of unsupported element type"
  in
  let lv_store ~(on : int) (i : instr) (ptr : value) (index : value) (v : value) :
      lane_state -> unit =
    let slot = match v with Vinstr vi -> kind_of vi | _ -> None in
    match (type_of v, slot) with
    | (F32 | I1 | I8 | I16 | I32 | I64), Some ((KFloat _ | KInt _) as k)
    | Vec _, Some ((KFvec _ | KIvec _) as k) ->
        lv_access ~on ~is_write:true i ptr index k ~cs:(Bool.to_int (varying v))
    | Vec _, _ -> fun _ -> trap "store of a non-vector"
    | F32, _ ->
        let gv = lv_fget (op v) in
        each ~on ~is_write:true i ptr index (fun ls b idx l ->
            Memory.set_float b idx (gv ls l))
    | (I1 | I8 | I16 | I32 | I64), _ ->
        let gv = lv_iget (op v) in
        each ~on ~is_write:true i ptr index (fun ls b idx l ->
            Memory.set_int b idx (gv ls l))
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
    | Load { ptr; index }, _ -> [ lv_load ~on:(-1) i ptr index ]
    | Store { ptr; index; v }, _ -> [ lv_store ~on:(-1) i ptr index v ]
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
     fixpoint guarantees a uniform phi only has uniform incomings; a
     vector phi is one move per component. An edge none of whose moves
     reads a slot (of the same kind) that one of its moves writes moves
     in place: each move writes its destination columns directly (one
     value for a uniform move, [nl] for a varying one) and the commit
     arrays stay empty. An edge with such a conflict — a rotation
     [t = a; a = b; b = t + 1] around a loop — stages every move into
     scratch over whole columns, then commits. *)
  let scr_ui = ref 0 and scr_uf = ref 0 and scr_ub = ref 0 in
  let scr_vi = ref 0 and scr_vf = ref 0 and scr_vb = ref 0 in
  let opnds_of k v = opnds_of kinds ~vr:(varying v) k v in
  let mk_ledge (src : block) (dst : block) : ledge =
    (* [Some (uniform, destination slot, source)] per move, in phi order;
       [None] for a phi with no incoming for [src] *)
    let moves =
      List.concat_map
        (fun (pi : instr) ->
          match pi.op with
          | Phi { incoming; _ } -> (
              match
                ( List.find_opt (fun (b, _) -> b.bid = src.bid) incoming,
                  kind_of pi )
              with
              | None, _ -> [ None ]
              | Some (_, v), Some k ->
                  let uni = not (Divergence.iid_divergent dv pi.iid) in
                  List.map2
                    (fun s o -> Some (uni, s, o))
                    (slots_of_kind k) (opnds_of k v)
              | Some _, None -> [])
          | _ -> [])
        dst.instrs
    in
    let writes = List.filter_map (Option.map (fun (_, s, _) -> s)) moves in
    let conflicts = function
      | Some (_, _, Oi (s, _)) -> List.mem (`I s) writes
      | Some (_, _, Of (s, _)) -> List.mem (`F s) writes
      | Some (_, _, Ob (s, _)) -> List.mem (`B s) writes
      | _ -> false
    in
    let in_place = not (List.exists conflicts moves) in
    let ui = ref [] and uf = ref [] and ub = ref [] in
    let vi = ref [] and vf = ref [] and vb = ref [] in
    (* Where a move of slot [s] writes: its base column in place, else the
       next scratch index of its class ([scale] columns apart), recording
       [s]'s base column for the commit. *)
    let dest r s ~scale =
      if in_place then s * lw
      else begin
        let k = List.length !r in
        r := (s * lw) :: !r;
        k * scale
      end
    in
    let ienv ls = ls.lienv and fenv ls = ls.lfenv and benv ls = ls.lbenv in
    let ti, tf, tb, tvi, tvf, tvb =
      if in_place then (ienv, fenv, benv, ienv, fenv, benv)
      else
        ( (fun ls -> ls.luiscr),
          (fun ls -> ls.lufscr),
          (fun ls -> ls.lubscr),
          (fun ls -> ls.lviscr),
          (fun ls -> ls.lvfscr),
          fun ls -> ls.lvbscr )
    in
    let compile = function
      | None -> fun _ -> trap "phi has no incoming for predecessor"
      | Some (true, `I s, o) ->
          let d = dest ui s ~scale:1 and g = lu_iget o in
          fun ls -> (ti ls).(d) <- g ls
      | Some (true, `F s, o) -> (
          let d = dest uf s ~scale:1 in
          match o with
          | Of (x, _) ->
              let x = x * lw in
              fun ls -> (tf ls).(d) <- ls.lfenv.(x)
          | _ ->
              let g = lu_fget o in
              fun ls -> (tf ls).(d) <- g ls)
      | Some (true, `B s, o) ->
          let d = dest ub s ~scale:1 and g = lu_bget o in
          fun ls -> (tb ls).(d) <- g ls
      | Some (false, `I s, o) -> lv_imove_to tvi o (dest vi s ~scale:lw)
      | Some (false, `F s, o) -> lv_fmove_to tvf o (dest vf s ~scale:lw)
      | Some (false, `B s, o) ->
          let d = dest vb s ~scale:lw and g = lv_bget o in
          fun ls ->
            let t = tvb ls in
            for l = 0 to ls.nl - 1 do
              t.(d + l) <- g ls l
            done
    in
    let stage = Array.of_list (List.map compile moves) in
    let arr r = Array.of_list (List.rev !r) in
    scr_ui := max !scr_ui (List.length !ui);
    scr_uf := max !scr_uf (List.length !uf);
    scr_ub := max !scr_ub (List.length !ub);
    scr_vi := max !scr_vi (List.length !vi);
    scr_vf := max !scr_vf (List.length !vf);
    scr_vb := max !scr_vb (List.length !vb);
    {
      le_dst = Hashtbl.find bidx dst.bid;
      le_stage = stage;
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

     A divergent [Cond_br] classified by {!Regions} as a diamond is
     compiled into the branch block's own segment: a predicate closure
     fills [lpred]/[lnthen] (charging one branch per lane, as the tree
     engine does per work-item), each arm's body runs under its mask, phi
     nodes at the join are written as per-lane masked merges, and the
     terminator becomes a plain jump to the join. Pure varying
     instructions evaluate flat over every lane — an inactive lane's
     garbage is only ever read by the masked merge, which selects the
     other side, or by a guarded access, which skips it — while
     instructions whose execution is observable or can fault (loads and
     stores: memory, trace and sanitizer events, bounds traps; integer
     division: traps) run under an explicit per-lane guard. Each arm's static cost
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
      | Load { ptr; index }, _ -> [ lv_load ~on i ptr index ]
      | Store { ptr; index; v }, _ -> [ lv_store ~on i ptr index v ]
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
    | `F s ->
        let b = s * lw and gt = lv_fget ot and ge = lv_fget oe in
        fun ls ->
          let fe = ls.lfenv and pr = ls.lpred in
          for l = 0 to ls.nl - 1 do
            fe.(b + l) <- (if pr.(l) <> 0 then gt ls l else ge ls l)
          done
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

  let lsegs =
    Array.mapi
      (fun si ((b : block), (instrs : instr list), (bar : instr option)) ->
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
                  | _ when Divergence.value_divergent dv c ->
                      (* {!Regions} found no such branch where code runs *)
                      ([], LTtrap "divergent branch in lane code")
                  | _ -> ([], LTcond (lu_iget (op c), mk_ledge b t, mk_ledge b e)))
              | Some { op = Ret; _ } -> ([], LTret)
              | _ -> ([], LTtrap "missing terminator"))
        in
        let c_int, c_float, c_special = block_cost instrs in
        { lbody = Array.of_list (lbody @ extra); lterm; c_int; c_float; c_special })
      seg_descs
  in

  let n_int, n_float, n_box = n_slots in
  {
    lsegs;
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
  }

(* Slot kinds, segment layout and barrier numbering of [fn], then its lane
   code. [None] when the barriers do not form regions, or when a region
   cannot run as a lane batch (a private alloca, or a divergent branch
   outside a maskable diamond): such a kernel runs the tree engine under
   fibers. *)
let compile_fn (fn : func) (regions : Regions.verdict) : clanes option =
  match regions with
  | Regions.Fallback _ -> None
  | Regions.Formed info when not (Array.for_all Regions.lane_ok info.Regions.lane_entries) ->
      None
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
          (compile_lanes ~kinds ~n_slots:(!ni, !nf, !nb) ~bidx ~bar_index ~bar_entry
             ~seg_descs ~info)

(* -- The region executor -------------------------------------------------------

   [run_lane_region] drives the batch of a whole work-group through the
   current parallel region in one pass over the compiled segments, until
   the batch either returns (result -1) or reaches a barrier (result =
   the barrier's dense index; the group continues at [bar_entry.(bar)]).
   Segment costs are
   bumped once per batch, multiplied by the active lane count, so trace
   totals are bit-identical to the tree engine. *)

let take_ledge (ls : lane_state) (e : ledge) : int =
  let stage = e.le_stage in
  if Array.length stage > 0 then begin
    let lw = max_lane_width and nl = ls.nl in
    (* Run every move against the predecessor's columns... *)
    for k = 0 to Array.length stage - 1 do
      stage.(k) ls
    done;
    (* ...then commit what was staged (nothing on an in-place edge). *)
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

(** Re-aim the lane state at the work-group currently held in
    [lctx.grp]: every lane active, and each lane's global id the group's
    origin plus the lane's local id, which {!make_lane_state} laid out. *)
let reset_lane_batch (ls : lane_state) : unit =
  let lsz = ls.lctx.lsz and grp = ls.lctx.grp in
  ls.nl <- lsz.(0) * lsz.(1) * lsz.(2);
  for d = 0 to 2 do
    let lid = ls.llid.(d) and gid = ls.lgid.(d) and g = grp.(d) * lsz.(d) in
    for l = 0 to ls.nl - 1 do
      gid.(l) <- g + lid.(l)
    done
  done

(* -- Public interface -------------------------------------------------------- *)

let prepare (fn : func) : compiled =
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
  let code = compile_fn fn regions in
  { fn; slots; n_slots = !n; local_allocas; regions; code }

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

(** Fresh lane-batched execution state for [ln] over work-groups of
    [ctx.lsz], at most {!max_lane_width} work-items, sharing the group
    context, argument row and stats sink with the runtime: lane [l] holds
    the work-item of flat local id [l]. *)
let make_lane_state (ln : clanes) ~(ctx : wi_ctx) ~(args : rv array)
    ~(stats : Trace.wg_stats) ~(local_bufs : (int, Memory.buffer) Hashtbl.t) :
    lane_state =
  let lw = max_lane_width and lsz = ctx.lsz in
  let nl = lsz.(0) * lsz.(1) * lsz.(2) in
  let llid = Array.init 3 (fun _ -> Array.make lw 0) in
  for l = 0 to nl - 1 do
    let x, y, z = lane_lid ~lsx:lsz.(0) ~lsy:lsz.(1) l in
    llid.(0).(l) <- x;
    llid.(1).(l) <- y;
    llid.(2).(l) <- z
  done;
  {
    nl;
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
    llid;
    lgid = Array.init 3 (fun _ -> Array.make lw 0);
    lctx = ctx;
    largs = args;
    lstats = stats;
    llocal = local_bufs;
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
