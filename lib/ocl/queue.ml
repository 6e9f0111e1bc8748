(** Out-of-order command queues (OpenCL in-context command queue
    analogue) over the multi-launch chunk scheduler {!Runtime.Sched}.

    [enqueue_nd_range] (and the [enqueue_read] / [enqueue_write] buffer
    barriers, and [enqueue_marker]) record commands and return an
    {!Event.t} immediately; nothing executes until [finish] or [wait]
    drains the scheduler. A command becomes ready when every dependency
    has completed; dependencies are the explicit event wait-list plus
    implicit buffer hazards: a command that reads a buffer is ordered
    after the last enqueued writer (RAW), a command that writes one after
    the last writer and all readers since (WAW, WAR). Which pointer
    arguments a kernel may read or write is derived from its IR
    ({!arg_modes}: pointer provenance through phis/selects/casts, falling
    back to "reads and writes everything" for opaque flows), so
    well-formed independent launches need no explicit events at all.

    Ready launches are executed as (launch, chunk) pairs pulled from the
    shared ready set — many small launches saturate the domain pool even
    when no single launch scales (the pocl command-queue model). Each
    event carries its launch's totals, merged over chunks by the same
    additive {!Trace.merge_totals} a sequential run uses, so they are
    schedule-invariant.

    All queues share one scheduler: [finish] on any queue drains every
    submitted command in the process. Only the main domain may enqueue or
    drain (same rule as parallel {!Runtime.launch}). Sanitized execution
    is not routed through queues — {!Runtime.run_sanitized} runs
    launches one at a time on one domain. *)

open Grover_ir
open Ssa
module Sched = Runtime.Sched

(* -- Which pointer args may a kernel read / write? ------------------------- *)

(** [(may_read, may_write)] per kernel argument index
    ({!Runtime.compute_arg_modes}). *)
let compute_arg_modes = Runtime.compute_arg_modes

(* Memoized per function (physical identity — IR is not hash-consed):
   enqueues of the same compiled kernel, the common case, pay the IR walk
   once. Main-domain only, like every enqueue entry point. *)
let arg_modes_memo : (func * (bool * bool) array) list ref = ref []
let arg_modes_memo_max = 64

let arg_modes (fn : func) : (bool * bool) array =
  match List.find_opt (fun (f, _) -> f == fn) !arg_modes_memo with
  | Some (_, m) -> m
  | None ->
      let m = compute_arg_modes fn in
      let keep =
        List.filteri (fun i _ -> i < arg_modes_memo_max - 1) !arg_modes_memo
      in
      arg_modes_memo := (fn, m) :: keep;
      m

(* -- Queues ----------------------------------------------------------------- *)

(* Last enqueued writer and the readers since, per buffer ([buid]). *)
type hazard = {
  mutable hz_writer : Event.t option;
  mutable hz_readers : Event.t list;
}

type t = {
  q_domains : int;  (** drain width request; 0 = auto *)
  mutable q_pending : int;  (** enqueued, not yet completed commands *)
  mutable q_live : Event.t list;
      (** still-pending events, newest first — what an empty-wait-list
          marker ("after everything enqueued so far") depends on *)
  mutable q_error : exn option;  (** first command failure; sticky *)
  hazards : (int, hazard) Hashtbl.t;
}

let create ?(domains = 0) () : t =
  {
    q_domains = domains;
    q_pending = 0;
    q_live = [];
    q_error = None;
    hazards = Hashtbl.create 16;
  }

(* A recorded command waiting on [p_deps] incomplete dependencies;
   [p_fire] (scheduler lock held) submits the launch / completes the
   marker once the count reaches 0. *)
type pending = { mutable p_deps : int; p_fire : unit -> unit }

(* Global completion order across all queues (scheduler lock held). *)
let completion_seq = ref 0

(* Lock held: mark [ev] complete and fire dependency callbacks. *)
let complete_locked (q : t) (ev : Event.t) ~(totals : Trace.totals option)
    ~(error : exn option) : unit =
  ev.Event.ev_state <- Event.Complete;
  ev.Event.ev_completed <- Unix.gettimeofday ();
  incr completion_seq;
  ev.Event.ev_seqno <- !completion_seq;
  ev.Event.ev_totals <- totals;
  ev.Event.ev_error <- error;
  (match error with
  | Some e when q.q_error = None -> q.q_error <- Some e
  | _ -> ());
  q.q_pending <- q.q_pending - 1;
  q.q_live <- List.filter (fun e -> e != ev) q.q_live;
  let cbs = ev.Event.ev_callbacks in
  ev.Event.ev_callbacks <- [];
  List.iter (fun f -> f ()) cbs

(* Lock held: make [p] depend on [deps] (dedup'd, completed ones skipped)
   and fire it if nothing is left to wait for. *)
let resolve_deps_locked (p : pending) (deps : Event.t list) : unit =
  let deps =
    List.sort_uniq
      (fun (a : Event.t) b -> compare a.Event.ev_id b.Event.ev_id)
      deps
  in
  List.iter
    (fun (ev : Event.t) ->
      if ev.Event.ev_state = Event.Pending then begin
        p.p_deps <- p.p_deps + 1;
        ev.Event.ev_callbacks <-
          (fun () ->
            p.p_deps <- p.p_deps - 1;
            if p.p_deps = 0 then p.p_fire ())
          :: ev.Event.ev_callbacks
      end)
    deps;
  if p.p_deps = 0 then p.p_fire ()

let hazard_for (q : t) (buf : Memory.buffer) : hazard =
  match Hashtbl.find_opt q.hazards buf.Memory.buid with
  | Some h -> h
  | None ->
      let h = { hz_writer = None; hz_readers = [] } in
      Hashtbl.add q.hazards buf.Memory.buid h;
      h

(* Lock held: dependencies implied by reading [reads] and writing
   [writes], then record [ev] as the new reader/writer. *)
let hazard_deps_locked (q : t) ~(reads : Memory.buffer list)
    ~(writes : Memory.buffer list) (ev : Event.t) : Event.t list =
  let deps = ref [] in
  List.iter
    (fun b ->
      match (hazard_for q b).hz_writer with
      | Some w -> deps := w :: !deps
      | None -> ())
    reads;
  List.iter
    (fun b ->
      let h = hazard_for q b in
      (match h.hz_writer with Some w -> deps := w :: !deps | None -> ());
      deps := h.hz_readers @ !deps)
    writes;
  List.iter (fun b -> (hazard_for q b).hz_readers <- ev :: (hazard_for q b).hz_readers) reads;
  List.iter
    (fun b ->
      let h = hazard_for q b in
      h.hz_writer <- Some ev;
      h.hz_readers <- [])
    writes;
  !deps

(* -- Enqueue ---------------------------------------------------------------- *)

(** Enqueue an ND-range launch. Executes — once [finish]/[wait] drains
    the scheduler — after every event in [wait] and every command it has
    a buffer hazard against; independent launches run concurrently as
    interleaved group-chunks over the domain pool. Execution matches
    [Runtime.launch ~domains] on the same arguments: same plan policy,
    same per-queue local-memory addresses, and totals that merge to the
    same values. *)
let enqueue_nd_range (q : t) (c : Interp.compiled)
    ~(cfg : Runtime.launch_config) ~(args : Runtime.arg_binding list)
    ?(wait : Event.t list = []) ?force_path () :
    Event.t =
  Runtime.check_geometry cfg;
  let gx, gy, gz = cfg.Runtime.global and lx, ly, lz = cfg.Runtime.local in
  let rv_args = Runtime.bind_args c.Interp.fn args in
  let plan =
    Runtime.plan c ~cfg ?force_path ~domains:q.q_domains ()
  in
  let lsz = [| lx; ly; lz |] in
  let gsz = [| gx; gy; gz |] in
  let ngr = [| gx / lx; gy / ly; gz / lz |] in
  let lr =
    Sched.make c ~rv_args ~lsz ~gsz ~ngr ~path:plan.Runtime.path
      ~width:plan.Runtime.domains_used
  in
  let ev = Event.make () in
  let modes = arg_modes c.Interp.fn in
  let reads = ref [] and writes = ref [] in
  List.iteri
    (fun k (b : Runtime.arg_binding) ->
      match b with
      | Runtime.Abuf buf ->
          let r, w =
            if k < Array.length modes then modes.(k) else (true, true)
          in
          if r then reads := buf :: !reads;
          if w then writes := buf :: !writes
      | Runtime.Aint _ | Runtime.Afloat _ -> ())
    args;
  lr.Sched.l_on_complete <-
    (fun (lr : Sched.launch_rec) ->
      complete_locked q ev ~totals:(Some lr.Sched.l_totals)
        ~error:lr.Sched.l_error);
  Sched.locked (fun () ->
      q.q_pending <- q.q_pending + 1;
      let p =
        {
          p_deps = 0;
          p_fire =
            (fun () ->
              ev.Event.ev_submitted <- Unix.gettimeofday ();
              Sched.submit_locked lr);
        }
      in
      let deps = hazard_deps_locked q ~reads:!reads ~writes:!writes ev in
      q.q_live <- ev :: q.q_live;
      resolve_deps_locked p (wait @ deps));
  ev

(* Marker-style commands share one shape: no execution, they complete the
   moment their dependencies have. *)
let enqueue_barrier ?(all = false) (q : t) ~(reads : Memory.buffer list)
    ~(writes : Memory.buffer list) ~(wait : Event.t list) : Event.t =
  let ev = Event.make () in
  Sched.locked (fun () ->
      q.q_pending <- q.q_pending + 1;
      let p =
        {
          p_deps = 0;
          p_fire =
            (fun () ->
              ev.Event.ev_submitted <- Unix.gettimeofday ();
              complete_locked q ev ~totals:None ~error:None);
        }
      in
      (* Snapshot before [ev] joins the live set: no self-dependency. *)
      let prior = if all then q.q_live else [] in
      let deps = hazard_deps_locked q ~reads ~writes ev in
      q.q_live <- ev :: q.q_live;
      resolve_deps_locked p (wait @ prior @ deps));
  ev

(** A read barrier on [buf]: its event completes once every previously
    enqueued command writing [buf] has — the host may then read the
    buffer's contents (OpenCL [clEnqueueReadBuffer] without the copy). *)
let enqueue_read (q : t) (buf : Memory.buffer) ?(wait = []) () : Event.t =
  enqueue_barrier q ~reads:[ buf ] ~writes:[] ~wait

(** A write barrier on [buf]: its event completes once every previously
    enqueued command touching [buf] has, and every later command touching
    it is ordered after this event — the fence around a host-side update
    of the buffer. *)
let enqueue_write (q : t) (buf : Memory.buffer) ?(wait = []) () : Event.t =
  enqueue_barrier q ~reads:[] ~writes:[ buf ] ~wait

(** A pure synchronization point: completes after [wait] (after all of
    [q]'s previously enqueued commands when [wait] is empty — an
    [clEnqueueBarrierWithWaitList] analogue is built by passing those
    events explicitly). *)
let enqueue_marker (q : t) ?(wait = []) () : Event.t =
  enqueue_barrier ~all:(wait = []) q ~reads:[] ~writes:[] ~wait

(* -- Drain ------------------------------------------------------------------ *)

let width (q : t) : int =
  min (Runtime.resolve_domains q.q_domains) (Runtime.effective_domain_cap ())

(** Drain the scheduler to quiescence (every submitted command in the
    process, not just [q]'s) with the caller participating as worker 0,
    then re-raise the first failure among [q]'s commands, if any. *)
let finish (q : t) : unit =
  Runtime.Sched.drain ~workers:(width q - 1) ();
  Sched.locked (fun () ->
      if q.q_pending > 0 then
        raise
          (Runtime.Launch_error
             "Queue.finish: commands still pending after drain (wait-list \
              cycle?)"));
  match q.q_error with Some e -> raise e | None -> ()

(** Wait for one event (drains the scheduler; with pool workers involved
    this runs to quiescence like [finish]), then re-raise its command's
    failure, if any. *)
let wait (q : t) (ev : Event.t) : unit =
  if not (Event.is_complete ev) then
    Runtime.Sched.drain
      ~stop:(fun () -> Event.is_complete ev)
      ~workers:(width q - 1) ();
  if not (Event.is_complete ev) then
    raise
      (Runtime.Launch_error
         "Queue.wait: event still pending after drain (wait-list cycle?)");
  match Event.error ev with Some e -> raise e | None -> ()
