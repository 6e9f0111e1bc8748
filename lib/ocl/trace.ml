(** Memory-access traces and per-work-group execution statistics, the
    interface between the execution engine and the performance simulator.

    Events are stored in struct-of-arrays form — two parallel [int]
    arrays, the byte address and a packed info word holding the
    work-item, the access width, the space and the write bit, instead of
    one boxed record per access — so recording an event in the
    interpreter hot loop is two unboxed array writes and no allocation.
    The group's loads, stores and local accesses are counted as events
    are recorded, so a launch's totals never rescan the events. A
    [wg_stats] value is a {b pooled} buffer: the runtime creates one per
    execution context (launch, or domain worker) and {!reset}s it between
    work-groups, so its capacity is reused across the whole NDRange.
    Consumers receiving a [wg_stats] through a streaming hook (e.g.
    [Runtime.launch ~on_group]) must therefore extract whatever they need
    before returning and never retain the record itself. *)

open Grover_ir

(** A single memory access, as a plain record. The packed arrays below are
    the storage format; this record is the convenience view used by tests
    and by {!push_event}/{!get_event}. *)
type event = {
  addr : int;  (** byte address *)
  bytes : int;
  is_write : bool;
  space : Ssa.space;
  wi : int;  (** linear work-item id within its work-group *)
}

(** Packed event info word:
    [(wi lsl wi_shift) lor (bytes lsl bytes_shift)
     lor (space code lsl space_shift) lor is_write].
    The layout is exported so that the lane engine can append events and
    a replay loop can decode them inline: the dev profile compiles with
    [-opaque], so a call into this module is never inlined. *)

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

(** The info word of an access, less its work-item: OR in
    [wi lsl wi_shift] for the whole word.
    @raise Invalid_argument if [bytes] does not fit the width field. *)
let info ~(bytes : int) ~(space : Ssa.space) ~(is_write : bool) : int =
  if bytes land bytes_mask <> bytes then
    invalid_arg
      (Printf.sprintf "Trace.info: a %d-byte access does not fit the %d-byte width field"
         bytes bytes_mask);
  (bytes lsl bytes_shift) lor (space_code space lsl space_shift) lor Bool.to_int is_write

type wg_stats = {
  mutable wg_id : int;  (** linear work-group id; the simulator maps it to a core *)
  mutable wg_size : int;
  mutable int_ops : int;
  mutable float_ops : int;
  mutable special_ops : int;  (** sqrt/rsqrt/exp/... *)
  mutable branches : int;
  mutable barriers : int;  (** barrier *instances* (per work-item) *)
  mutable barrier_rounds : int;  (** barrier sites crossed by the group *)
  mutable loads : int;  (** events recorded so far, by direction... *)
  mutable stores : int;
  mutable local_accesses : int;  (** ...and those in the local space *)
  mutable n_events : int;
  mutable ev_addr : int array;
  mutable ev_info : int array;  (** see {!info} and [wi_shift] *)
}

let fresh_stats ~wg_id ~wg_size : wg_stats =
  {
    wg_id;
    wg_size;
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
    ev_addr = Array.make 64 0;
    ev_info = Array.make 64 0;
  }

(** Rewind a pooled stats buffer for the next work-group: zero the
    counters and the event count, keep the event arrays' capacity. *)
let reset (s : wg_stats) ~wg_id ~wg_size : unit =
  s.wg_id <- wg_id;
  s.wg_size <- wg_size;
  s.int_ops <- 0;
  s.float_ops <- 0;
  s.special_ops <- 0;
  s.branches <- 0;
  s.barriers <- 0;
  s.barrier_rounds <- 0;
  s.loads <- 0;
  s.stores <- 0;
  s.local_accesses <- 0;
  s.n_events <- 0

(** Double the event arrays' capacity until [need] events fit. *)
let grow (s : wg_stats) (need : int) : unit =
  let cap = Array.length s.ev_addr in
  let cap' = ref (max 1 cap) in
  while !cap' < need do
    cap' := 2 * !cap'
  done;
  let extend a =
    let a' = Array.make !cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  s.ev_addr <- extend s.ev_addr;
  s.ev_info <- extend s.ev_info

(** Append one event and count it. The tree engine, the lane engine's
    per-lane accesses and {!push_event} record through here; a lane batch
    whose buffer is batch-uniform appends its events inline with the
    exported layout, calling only {!grow} and {!info}, and counts them
    once per batch (see [Interp.lv_access]). *)
let record (s : wg_stats) ~addr ~bytes ~is_write ~space ~wi : unit =
  let n = s.n_events in
  if n = Array.length s.ev_addr then grow s (n + 1);
  s.ev_addr.(n) <- addr;
  s.ev_info.(n) <- (wi lsl wi_shift) lor info ~bytes ~space ~is_write;
  s.n_events <- n + 1;
  if is_write then s.stores <- s.stores + 1 else s.loads <- s.loads + 1;
  if space = Ssa.Local then s.local_accesses <- s.local_accesses + 1

(** Record-view helpers for tests and debugging. *)
let push_event (s : wg_stats) (e : event) : unit =
  record s ~addr:e.addr ~bytes:e.bytes ~is_write:e.is_write ~space:e.space
    ~wi:e.wi

let get_event (s : wg_stats) k : event =
  let info = s.ev_info.(k) in
  {
    addr = s.ev_addr.(k);
    bytes = (info lsr bytes_shift) land bytes_mask;
    is_write = info land write_bit <> 0;
    space = space_of_code ((info lsr space_shift) land space_mask);
    wi = info lsr wi_shift;
  }

let iter_events (f : event -> unit) (s : wg_stats) : unit =
  for k = 0 to s.n_events - 1 do
    f (get_event s k)
  done

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
