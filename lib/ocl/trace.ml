(** Memory-access traces and per-work-group execution statistics, the
    interface between the execution engine and the performance simulator.

    A trace is a list of {b records}. A record is one access made by a
    run of consecutive work-items: the flat id of the first and how many
    it covers, the info word (width, space, write bit), and the byte
    address of work-item [(lx, ly, lz)] as [base + cx·lx + cy·ly + cz·lz]
    over the group's local ids. A lane batch that covers the whole group
    with an index exactly affine in the local id stores its access once,
    as one record of [wg_size] lanes, and a masked arm whose active lanes
    form one run with an affine index as one record of that run; every
    other access (the tree engine, per-lane accesses, other masked arms)
    is a one-lane record whose strides are 0. [n_events] counts the events the
    records represent, and {!iter_events} expands them in stored order,
    lanes ascending, so the per-work-item streams are the ones the
    accesses made.

    Records are stored in one flat [int] array, [rec_words] words each,
    so recording in the interpreter hot loop is a few unboxed array
    writes and no allocation. The group's loads, stores and local
    accesses are counted as records are stored, so a launch's totals
    never rescan them. A [wg_stats] value is a {b pooled} buffer: the
    runtime creates one per execution context (launch, or domain worker)
    and {!reset}s it between work-groups, so its capacity is reused
    across the whole NDRange. Consumers receiving a [wg_stats] through a
    streaming hook (e.g. [Runtime.launch ~on_group]) must therefore
    extract whatever they need before returning and never retain the
    record itself. *)

open Grover_ir

(** A single memory access of one work-item, as a plain record: the view
    {!iter_events} gives of the stored records, used by tests and by
    {!push_event}. *)
type event = {
  addr : int;  (** byte address *)
  bytes : int;
  is_write : bool;
  space : Ssa.space;
  wi : int;  (** linear work-item id within its work-group *)
}

(** Packed info word:
    [(first lsl wi_shift) lor (bytes lsl bytes_shift)
     lor (space code lsl space_shift) lor is_write], [first] being the
    record's first work-item. The layout is exported so that a replay
    loop can decode it inline: the dev profile compiles with [-opaque],
    so a call into this module is never inlined. *)

let write_bit = 1
let space_shift = 1
let space_mask = 3
let bytes_shift = 3
let bytes_mask = 255
let wi_shift = 11
let code_global = 0
let code_local = 1
let code_constant = 2
let code_private = 3

(** Record [r] occupies [recs.(r * rec_words) .. recs.(r * rec_words +
    rec_words - 1)]; these are the offsets of its words: the info word,
    the number of work-items covered ([first .. first + lanes - 1]), the
    base address and the byte strides per local id in x, y and z. *)

let f_info = 0
let f_lanes = 1
let f_base = 2
let f_cx = 3
let f_cy = 4
let f_cz = 5
let rec_words = 6

let space_code = function
  | Ssa.Global -> code_global
  | Ssa.Local -> code_local
  | Ssa.Constant -> code_constant
  | Ssa.Private -> code_private

let space_of_code c =
  if c = code_global then Ssa.Global
  else if c = code_local then Ssa.Local
  else if c = code_constant then Ssa.Constant
  else Ssa.Private

(** The info word of an access, less its first work-item.
    @raise Invalid_argument if [bytes] is not positive or does not fit
    the width field. *)
let info ~(bytes : int) ~(space : Ssa.space) ~(is_write : bool) : int =
  if bytes land bytes_mask <> bytes || bytes = 0 then
    invalid_arg
      (Printf.sprintf "Trace.info: a %d-byte access does not fit the 1..%d-byte width field"
         bytes bytes_mask);
  (bytes lsl bytes_shift) lor (space_code space lsl space_shift) lor Bool.to_int is_write

type wg_stats = {
  mutable wg_id : int;  (** linear work-group id; the simulator maps it to a core *)
  mutable wg_size : int;
  mutable lsx : int;
      (** local size in x and in y: work-item [l] has local id
          [(l mod lsx, l / lsx mod lsy, l / (lsx * lsy))] *)
  mutable lsy : int;
  mutable int_ops : int;
  mutable float_ops : int;
  mutable special_ops : int;  (** sqrt/rsqrt/exp/... *)
  mutable branches : int;
  mutable barriers : int;  (** barrier *instances* (per work-item) *)
  mutable barrier_rounds : int;  (** barrier sites crossed by the group *)
  mutable loads : int;  (** events recorded so far, by direction... *)
  mutable stores : int;
  mutable local_accesses : int;  (** ...and those in the local space *)
  mutable n_events : int;  (** events the records represent *)
  mutable n_recs : int;  (** records stored *)
  mutable batch_moves : int;
      (** accesses whose elements the lane engine moved as one batch,
          without a check per lane (see [Interp.batch_move]) *)
  mutable recs : int array;  (** [rec_words] words per record, see [f_info] *)
}

(** Stats of a one-dimensional group of [wg_size] work-items; {!reset}
    sets another shape. *)
let fresh_stats ~wg_id ~wg_size : wg_stats =
  {
    wg_id;
    wg_size;
    lsx = max 1 wg_size;
    lsy = 1;
    int_ops = 0;
    float_ops = 0;
    special_ops = 0;
    branches = 0;
    barriers = 0;
    barrier_rounds = 0;
    loads = 0;
    stores = 0;
    local_accesses = 0;
    n_events = 0;
    n_recs = 0;
    batch_moves = 0;
    recs = Array.make (64 * rec_words) 0;
  }

(** Rewind a pooled stats buffer for the next work-group, of local size
    [lsz] (3 dimensions): zero the counters and the record count, keep
    the record array's capacity. *)
let reset (s : wg_stats) ~wg_id ~(lsz : int array) : unit =
  s.wg_id <- wg_id;
  s.wg_size <- lsz.(0) * lsz.(1) * lsz.(2);
  s.lsx <- lsz.(0);
  s.lsy <- lsz.(1);
  s.int_ops <- 0;
  s.float_ops <- 0;
  s.special_ops <- 0;
  s.branches <- 0;
  s.barriers <- 0;
  s.barrier_rounds <- 0;
  s.loads <- 0;
  s.stores <- 0;
  s.local_accesses <- 0;
  s.n_events <- 0;
  s.n_recs <- 0;
  s.batch_moves <- 0

(** Store one record of [lanes] work-items from [first] and count its
    events. [info] comes from {!info}. Every record is stored here, one
    call each: the lane engine's whole-group affine accesses and
    one-lane accesses, and {!record}'s. *)
let record_batch (s : wg_stats) ~first ~lanes ~info ~base ~cx ~cy ~cz : unit =
  let r = s.n_recs * rec_words in
  if r = Array.length s.recs then begin
    let a = Array.make (2 * r) 0 in
    Array.blit s.recs 0 a 0 r;
    s.recs <- a
  end;
  let a = s.recs in
  a.(r + f_info) <- info lor (first lsl wi_shift);
  a.(r + f_lanes) <- lanes;
  a.(r + f_base) <- base;
  a.(r + f_cx) <- cx;
  a.(r + f_cy) <- cy;
  a.(r + f_cz) <- cz;
  s.n_recs <- s.n_recs + 1;
  s.n_events <- s.n_events + lanes;
  if info land write_bit <> 0 then s.stores <- s.stores + lanes
  else s.loads <- s.loads + lanes;
  if (info lsr space_shift) land space_mask = code_local then
    s.local_accesses <- s.local_accesses + lanes

(** Store the one-lane record of work-item [wi]'s access. The tree
    engine and the lane engine's accesses through per-lane getters
    record through here. *)
let record (s : wg_stats) ~addr ~bytes ~is_write ~space ~wi : unit =
  record_batch s ~first:wi ~lanes:1 ~info:(info ~bytes ~space ~is_write) ~base:addr ~cx:0
    ~cy:0 ~cz:0

(** Expand the records into events, in stored order and, within a
    record, by ascending work-item. *)
let iter_events (f : event -> unit) (s : wg_stats) : unit =
  let a = s.recs in
  for r = 0 to s.n_recs - 1 do
    let k = r * rec_words in
    let info = a.(k + f_info) in
    let bytes = (info lsr bytes_shift) land bytes_mask
    and is_write = info land write_bit <> 0
    and space = space_of_code ((info lsr space_shift) land space_mask) in
    for wi = info lsr wi_shift to (info lsr wi_shift) + a.(k + f_lanes) - 1 do
      let lx = wi mod s.lsx and ly = wi / s.lsx mod s.lsy and lz = wi / (s.lsx * s.lsy) in
      let addr = a.(k + f_base) + (a.(k + f_cx) * lx) + (a.(k + f_cy) * ly) + (a.(k + f_cz) * lz) in
      f { addr; bytes; is_write; space; wi }
    done
  done

(** Record-view helpers for tests and debugging. *)
let push_event (s : wg_stats) (e : event) : unit =
  record s ~addr:e.addr ~bytes:e.bytes ~is_write:e.is_write ~space:e.space ~wi:e.wi

(** The events in {!iter_events} order. *)
let events (s : wg_stats) : event list =
  let l = ref [] in
  iter_events (fun e -> l := e :: !l) s;
  List.rev !l

(** Aggregated totals over a whole launch (correctness runs often only need
    these, not the raw events). *)
type totals = {
  mutable t_int_ops : int;
  mutable t_float_ops : int;
  mutable t_special_ops : int;
  mutable t_branches : int;
  mutable t_barriers : int;
  mutable t_loads : int;
  mutable t_stores : int;
  mutable t_local_accesses : int;
  mutable t_groups : int;
}

let empty_totals () =
  {
    t_int_ops = 0;
    t_float_ops = 0;
    t_special_ops = 0;
    t_branches = 0;
    t_barriers = 0;
    t_loads = 0;
    t_stores = 0;
    t_local_accesses = 0;
    t_groups = 0;
  }

(** Fold [b] into [a] (all counters are additive). Used to combine the
    per-domain partial totals of a parallel launch; since every field is a
    plain sum, the result is independent of how work-groups were
    distributed over domains. *)
let merge_totals (a : totals) (b : totals) : unit =
  a.t_int_ops <- a.t_int_ops + b.t_int_ops;
  a.t_float_ops <- a.t_float_ops + b.t_float_ops;
  a.t_special_ops <- a.t_special_ops + b.t_special_ops;
  a.t_branches <- a.t_branches + b.t_branches;
  a.t_barriers <- a.t_barriers + b.t_barriers;
  a.t_loads <- a.t_loads + b.t_loads;
  a.t_stores <- a.t_stores + b.t_stores;
  a.t_local_accesses <- a.t_local_accesses + b.t_local_accesses;
  a.t_groups <- a.t_groups + b.t_groups

let accumulate (tot : totals) (s : wg_stats) : unit =
  tot.t_int_ops <- tot.t_int_ops + s.int_ops;
  tot.t_float_ops <- tot.t_float_ops + s.float_ops;
  tot.t_special_ops <- tot.t_special_ops + s.special_ops;
  tot.t_branches <- tot.t_branches + s.branches;
  tot.t_barriers <- tot.t_barriers + s.barriers;
  tot.t_loads <- tot.t_loads + s.loads;
  tot.t_stores <- tot.t_stores + s.stores;
  tot.t_local_accesses <- tot.t_local_accesses + s.local_accesses;
  tot.t_groups <- tot.t_groups + 1
