(** Kernel launch: NDRange iteration, local-memory allocation, pooled
    execution state, and two group schedulers —

    - {b lanes} ([wg-vec]): pocl-style work-item loops over the
      closure-compiled lane code. Each work-group of up to
      {!Interp.max_lane_width} work-items runs as one batch, its
      barrier-delimited regions ({!Grover_ir.Regions} proved the barriers
      group-uniform) in turn, so the values live across a barrier stay in
      the lane slots;
    - {b fiber}: the effect-handler scheduler over the tree engine, kept
      as the differential oracle and as the path for everything lane code
      cannot run: a kernel with a region lane batches cannot run (a
      divergent branch outside a maskable diamond, a private alloca, a
      divergent barrier, which it detects dynamically) and a work-group
      larger than {!Interp.max_lane_width}.

    [GROVER_FORCE_PATH=wg-vec|fiber] overrides the choice for every
    launch of the process, within static capability. The fiber path is
    the only way to run the tree engine: [~force_path:Fiber] for one
    launch, [GROVER_FORCE_PATH=fiber] for a process.

    Parallel launches run on a {e persistent} domain pool: worker domains
    are spawned once (lazily, grown on demand) and reused across launches,
    and work-groups are distributed by atomic chunk-claiming rather than a
    fixed stride, so repeated launches — the autotune / bench pattern —
    pay neither [Domain.spawn] nor load-imbalance costs. *)

open Grover_ir
open Ssa

type arg_binding =
  | Abuf of Memory.buffer
  | Aint of int
  | Afloat of float

type launch_config = {
  global : int * int * int;  (** global work size per dimension *)
  local : int * int * int;  (** work-group size per dimension *)
  queues : int;
      (** not read: a launch's trace does not depend on the hardware, and
          the simulator maps work-groups to cores *)
}

exception Launch_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Launch_error m)) fmt

let bind_args (fn : func) (bindings : arg_binding list) : Interp.rv array =
  if List.length bindings <> List.length fn.f_args then
    fail "kernel %s expects %d arguments, got %d" fn.f_name
      (List.length fn.f_args) (List.length bindings);
  Array.of_list
    (List.map2
       (fun (a : arg) b ->
         match (a.a_ty, b) with
         | Ptr (sp, elem), Abuf buf ->
             if buf.Memory.elem <> elem then
               fail "argument %s: buffer element type mismatch" a.a_name;
             if sp <> buf.Memory.space && not (sp = Global && buf.Memory.space = Constant)
             then fail "argument %s: address space mismatch" a.a_name;
             (* Diagnostics (the sanitizer in particular) name buffers
                after the kernel argument they are bound to. *)
             if buf.Memory.bname = "" then buf.Memory.bname <- a.a_name;
             Interp.RBuf buf
         | (I8 | I16 | I32 | I64), Aint n -> Interp.RInt n
         | F32, Afloat f -> Interp.RFloat f
         | _, _ -> fail "argument %s: binding type mismatch" a.a_name)
       fn.f_args bindings)

(* -- Which pointer args may a kernel read / write? ------------------------- *)

(** [(may_read, may_write)] per kernel argument index. Conservative:
    pointer provenance is tracked through phis, selects and casts; a
    pointer reaching a [Load]/[Store] through any flow the walk cannot
    resolve (including phi cycles and unknown callees) taints every
    pointer argument. *)
let compute_arg_modes (fn : func) : (bool * bool) array =
  let n = List.length fn.f_args in
  let reads = Array.make n false and writes = Array.make n false in
  let all = List.init n Fun.id in
  let memo : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let visiting : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec ptr_args (v : value) : int list =
    match v with
    | Arg a -> ( match a.a_ty with Ptr _ -> [ a.a_index ] | _ -> [])
    | Cint _ | Cfloat _ -> []
    | Vinstr i -> (
        match Hashtbl.find_opt memo i.iid with
        | Some s -> s
        | None ->
            if Hashtbl.mem visiting i.iid then
              (* A pointer phi cycle: give up on precision, not safety. *)
              all
            else begin
              Hashtbl.add visiting i.iid ();
              let s =
                match i.op with
                | Alloca _ -> []
                | Phi { incoming; _ } ->
                    List.concat_map (fun (_, v) -> ptr_args v) incoming
                | Select (_, a, b) -> ptr_args a @ ptr_args b
                | Cast (_, v, _) -> ptr_args v
                | _ -> ( match type_of v with Ptr _ -> all | _ -> [])
              in
              Hashtbl.remove visiting i.iid;
              Hashtbl.replace memo i.iid s;
              s
            end)
  in
  iter_instrs
    (fun i ->
      match i.op with
      | Load { ptr; _ } ->
          List.iter (fun k -> reads.(k) <- true) (ptr_args ptr)
      | Store { ptr; _ } ->
          List.iter (fun k -> writes.(k) <- true) (ptr_args ptr)
      | Call { args; _ } ->
          (* Unknown callee: a pointer argument may be read and written. *)
          List.iter
            (fun v ->
              match type_of v with
              | Ptr _ ->
                  List.iter
                    (fun k ->
                      reads.(k) <- true;
                      writes.(k) <- true)
                    (ptr_args v)
              | _ -> ())
            args
      | _ -> ())
    fn;
  Array.init n (fun k -> (reads.(k), writes.(k)))

(** The buids of the buffers in [args] that no argument of [fn] may write
    ({!compute_arg_modes}), decided per buffer: one bound to a written
    argument and to a read-only one is written. A sanitized launch gives
    them no shadow, since an element nothing writes takes part in no
    race. *)
let read_only_buids (fn : func) (args : arg_binding list) : int list =
  let modes = compute_arg_modes fn in
  let bound =
    List.concat
      (List.mapi
         (fun k a ->
           match a with
           | Abuf b -> [ (b.Memory.buid, k >= Array.length modes || snd modes.(k)) ]
           | Aint _ | Afloat _ -> [])
         args)
  in
  List.sort_uniq Int.compare
    (List.filter_map
       (fun (u, _) -> if List.mem (u, true) bound then None else Some u)
       bound)

(* -- Execution plan ----------------------------------------------------------- *)

(** The group scheduler a launch will use (see the module docs): one lane
    batch per work-group, or fibers. *)
type path = Lanes | Fiber

(** How a launch will execute: which group scheduler, and on how many
    domains (including the calling one). Computed by {!plan} with the
    exact rules {!launch} applies, so benches and autotuners can report
    auditable execution metadata without re-deriving the policy. *)
type exec_plan = {
  path : path;
  domains_used : int;  (** parallel domains, including the caller *)
  domains_requested : int;  (** post-[resolve_domains] request *)
  domains_clamped : bool;
      (** [domains_used < domains_requested]: the request exceeded either
          the hardware parallelism cap or the profitable per-domain share
          of this NDRange *)
}

let max_domains = 64

(* Hardware parallelism cap. Explicit multi-domain requests used to be
   taken at face value; on a host with fewer cores than the request the
   extra domains time-slice one core and the coordination overhead makes
   the launch *slower* than serial (the BENCH_interp.json 4-domain
   regression). Every domain request is therefore clamped to the
   recommended domain count, overridable for tests and oversubscription
   experiments via {!set_domain_cap}. *)
let domain_cap : int option ref = ref None

(** Override the hardware parallelism cap ([Some n]) or restore the
    default ([None]: [Domain.recommended_domain_count ()]). *)
let set_domain_cap (c : int option) : unit = domain_cap := c

let effective_domain_cap () : int =
  let cap =
    match !domain_cap with
    | Some n when n > 0 -> n
    | Some _ | None -> Domain.recommended_domain_count ()
  in
  max 1 (min max_domains cap)

let resolve_domains (domains : int) : int =
  if domains = 0 then effective_domain_cap ()
  else max 1 (min max_domains domains)

(* -- Path selection ------------------------------------------------------ *)

let path_of_string (s : string) : path option =
  match s with
  | "fiber" -> Some Fiber
  | "wg-vec" -> Some Lanes
  | _ -> None

(** The path [GROVER_FORCE_PATH] pins, [None] when it is unset or empty.
    @raise Launch_error on a value {!path_of_string} does not accept. *)
let env_force_path () : path option =
  match Sys.getenv_opt "GROVER_FORCE_PATH" with
  | None | Some "" -> None
  | Some s -> (
      match path_of_string s with
      | Some _ as p -> p
      | None ->
          fail "unknown GROVER_FORCE_PATH %S (expected wg-vec or fiber)" s)

(** The path [c] takes with no override and a group of at most
    {!Interp.max_lane_width} work-items: lane batches if it has lane
    code. *)
let default_path (c : Interp.compiled) : path =
  match c.Interp.code with Some _ -> Lanes | None -> Fiber

(** The work-items in one batch of [path] on [cfg]: the whole group on
    lanes, 1 on fibers. *)
let batch_width (cfg : launch_config) (path : path) : int =
  let lx, ly, lz = cfg.local in
  match path with Lanes -> lx * ly * lz | Fiber -> 1

(** The path a launch takes: [force_path], else [GROVER_FORCE_PATH], else
    lane batches — always within [c]'s capability: without lane code
    every kernel runs on fibers. *)
let choose_path (c : Interp.compiled) ~(force_path : path option) : path =
  let want =
    match force_path with Some _ -> force_path | None -> env_force_path ()
  in
  if want = Some Fiber then Fiber else default_path c

(* Pool-growth cap: a domain whose share of the NDRange is below one
   claimable chunk of work adds coordination (and domain wake-up) cost
   without amortizing it, so small launches stop growing the pool instead
   of spreading a handful of groups over every core. *)
let min_groups_per_domain = 2

(** How {!launch} runs [c] on [cfg]: the path {!choose_path} picks, and
    the domains the NDRange can keep busy. Lane code runs a work-group
    only as one batch, so a group of more than {!Interp.max_lane_width}
    work-items plans fibers. *)
let plan (c : Interp.compiled) ~(cfg : launch_config) ?force_path
    ?(domains = 1) () : exec_plan =
  let gx, gy, gz = cfg.global and lx, ly, lz = cfg.local in
  let n_groups =
    if lx <= 0 || ly <= 0 || lz <= 0 then 0
    else gx / lx * (gy / ly) * (gz / lz)
  in
  let requested = resolve_domains domains in
  let d = min requested (effective_domain_cap ()) in
  let d =
    if n_groups < 2 then 1
    else min d (max 1 (n_groups / min_groups_per_domain))
  in
  let path =
    match choose_path c ~force_path with
    | Lanes when lx * ly * lz <= Interp.max_lane_width -> Lanes
    | Lanes | Fiber -> Fiber
  in
  {
    path;
    domains_used = d;
    domains_requested = requested;
    domains_clamped = d < requested;
  }

let string_of_path : path -> string = function
  | Lanes -> "wg-vec"
  | Fiber -> "fiber"

let path_name (p : exec_plan) : string = string_of_path p.path

(* -- Per-(launch x domain) execution context ---------------------------------

   Everything a domain needs to run work-groups, allocated once per launch
   per domain and reused across all its groups: the scheduler's state
   (the lane state, or one tree state per work-item plus the
   parked-continuation queue), the reused [grp] coordinate array
   shared by every state's context, and the local-memory allocations. *)

(* Kernels with no local allocas share one immutable empty table. *)
let no_locals : (int, Memory.buffer) Hashtbl.t = Hashtbl.create 1

(* A context's local buffers, laid out back to back from the start of the
   local region: the alloca iid -> buffer table the states read, and the
   same buffers as a list for per-group clearing. Their addresses are the
   same in every context. *)
let alloc_locals (c : Interp.compiled) (scratch : Memory.t) :
    (int, Memory.buffer) Hashtbl.t * Memory.buffer list =
  if c.Interp.local_allocas = [] then (no_locals, [])
  else begin
    let tab = Hashtbl.create 4 in
    let offset = ref 0 in
    let bufs =
      List.map
        (fun (i : instr) ->
          match i.op with
          | Alloca { elem; count; aname; _ } ->
              let b = Memory.alloc_local scratch ~name:aname ~offset:!offset elem count in
              offset := !offset + (count * ty_size_bytes elem);
              Hashtbl.replace tab i.iid b;
              b
          | _ -> assert false)
        c.Interp.local_allocas
    in
    (tab, bufs)
  end

type sched =
  | Lane_sweep of { ln : Interp.clanes; lst : Interp.lane_state }
  | Fibers of {
      states : Interp.wi_state array;
          (** one tree state per work-item: the work-items of a group are
              live concurrently between barriers *)
      parked : (unit, unit) Effect.Deep.continuation Stdlib.Queue.t;
    }

type exec_ctx = {
  xc : Interp.compiled;
  scratch : Memory.t;  (** local / private allocations land here *)
  stats : Trace.wg_stats;  (** pooled; reset per group *)
  args : Interp.rv array;  (** shared by every state; rebound per launch *)
  lsz : int array;
  ngr : int array;
  grp : int array;  (** shared by all states' contexts; rewritten per group *)
  n_items : int;
  sched : sched;
  locals : Memory.buffer list;  (** the states' local buffers, cleared per group *)
  san : Sanitize.t option;
}

let make_ctx (c : Interp.compiled) ~(rv_args : Interp.rv array)
    ~(scratch : Memory.t) ~(stats : Trace.wg_stats) ~(lsz : int array)
    ~(gsz : int array) ~(ngr : int array) ~(path : path)
    ?(san : Sanitize.t option) () : exec_ctx =
  let n_items = lsz.(0) * lsz.(1) * lsz.(2) in
  let grp = [| 0; 0; 0 |] in
  let local_bufs, locals = alloc_locals c scratch in
  let wi_ctx () =
    {
      Interp.lid = [| 0; 0; 0 |];
      gid = [| 0; 0; 0 |];
      grp;
      lsz;
      gsz;
      ngr;
      flat_lid = 0;
    }
  in
  let sched =
    match (path, c.Interp.code) with
    | Lanes, Some ln ->
        if n_items > Interp.max_lane_width then
          fail "lane batches planned for a %d-item group of %s" n_items
            c.Interp.fn.f_name;
        let lst =
          Interp.make_lane_state ln ~ctx:(wi_ctx ()) ~args:rv_args ~stats ~local_bufs
        in
        lst.Interp.lsan <- san;
        Lane_sweep { ln; lst }
    | Lanes, None -> fail "lane batches planned for a kernel without lane code"
    | Fiber, _ ->
        let states =
          Array.init n_items (fun _ ->
              let st =
                Interp.make_state c ~args:rv_args ~ctx:(wi_ctx ()) ~stats
                  ~local_bufs ~mem:scratch
              in
              st.Interp.san <- san;
              st)
        in
        Fibers { states; parked = Stdlib.Queue.create () }
  in
  {
    xc = c;
    scratch;
    stats;
    args = rv_args;
    lsz;
    ngr;
    grp;
    n_items;
    sched;
    locals;
    san;
  }

(* -- Group schedulers --------------------------------------------------------- *)

(* Barrier-aware scheduler: every work-item runs as a fiber on the tree
   engine; hitting a barrier performs [Barrier_hit], the handler parks the
   continuation, and the group resumes in rounds once all still-running
   items have arrived. *)
let run_group_fibers (x : exec_ctx) ~(states : Interp.wi_state array)
    ~(parked : (unit, unit) Effect.Deep.continuation Stdlib.Queue.t) : unit =
  let open Effect.Deep in
  let finished = ref 0 in
  for flat = 0 to x.n_items - 1 do
    let st = states.(flat) in
    Interp.reset_item st ~flat;
    match_with
      (fun () ->
        Interp.run_tree st;
        incr finished)
      ()
      {
        retc = (fun () -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Interp.Barrier_hit ->
                Some (fun (k : (a, unit) continuation) -> Stdlib.Queue.add k parked)
            | _ -> None);
      }
  done;
  (* Barrier rounds: a released barrier must have been reached by every
     work-item of the group. A work-item that already finished performed
     fewer barrier crossings than the parked ones are about to — barrier
     divergence, undefined behaviour in OpenCL. *)
  while not (Stdlib.Queue.is_empty parked) do
    let waiting = Stdlib.Queue.length parked in
    if !finished > 0 then
      fail "barrier divergence in %s: %d of %d work-items reached the barrier"
        x.xc.Interp.fn.f_name waiting x.n_items;
    x.stats.Trace.barrier_rounds <- x.stats.Trace.barrier_rounds + 1;
    (* All work-items synchronized: accesses after this point are ordered
       against everything before it. *)
    (match x.san with Some s -> Sanitize.barrier_round s | None -> ());
    let batch = Stdlib.Queue.create () in
    Stdlib.Queue.transfer parked batch;
    Stdlib.Queue.iter (fun k -> continue k ()) batch
  done;
  if !finished <> x.n_items then
    fail "work-group did not run to completion in %s" x.xc.Interp.fn.f_name

(* Work-item loops: the group runs as one batch, the kernel's regions in
   turn, so the batch reaching the end of a region is the whole group
   arriving at the barrier, and the values live across it stay in the
   lane slots. Each work-item's accesses keep its program order, which is
   all the trace consumers depend on, so results are bit-identical to the
   fiber scheduler. *)
let run_group_lanes (x : exec_ctx) ~(ln : Interp.clanes) ~(lst : Interp.lane_state) :
    unit =
  Interp.reset_lane_batch lst;
  let e = ref (Interp.run_lane_region lst ln ~from:0) in
  while !e >= 0 do
    x.stats.Trace.barrier_rounds <- x.stats.Trace.barrier_rounds + 1;
    (match x.san with Some s -> Sanitize.barrier_round s | None -> ());
    e := Interp.run_lane_region lst ln ~from:ln.Interp.bar_entry.(!e)
  done

let run_one_group (x : exec_ctx) ~(wg : int) : unit =
  (match x.san with Some s -> Sanitize.enter_group s ~group:wg | None -> ());
  let ngr = x.ngr in
  x.grp.(0) <- wg mod ngr.(0);
  x.grp.(1) <- wg / ngr.(0) mod ngr.(1);
  x.grp.(2) <- wg / (ngr.(0) * ngr.(1));
  (* Fresh local memory per group, matching the former per-group
     allocation semantics. *)
  List.iter Memory.clear x.locals;
  Trace.reset x.stats ~wg_id:wg ~lsz:x.lsz;
  match x.sched with
  | Lane_sweep { ln; lst } -> run_group_lanes x ~ln ~lst
  | Fibers { states; parked } -> run_group_fibers x ~states ~parked

(* -- The persistent domain pool -----------------------------------------------

   Worker domains are spawned lazily, kept parked on a condition variable
   between launches, and reused forever; a launch that wants d domains
   publishes one job and participates as worker 0 itself. Jobs receive the
   worker's stable 1-based index; workers beyond the launch's requested
   width no-op (they still take part in the completion count). Exceptions
   raised inside a job are captured and re-raised on the launching domain.
   Only the main launching domain may dispatch (no nested parallel
   launches from inside a kernel). *)

module Pool = struct
  type t = {
    m : Mutex.t;
    work : Condition.t;  (** a new job was published *)
    idle : Condition.t;  (** all workers finished the current job *)
    mutable job : (int -> unit) option;
    mutable seq : int;  (** job sequence number *)
    mutable pending : int;  (** workers yet to finish the current job *)
    mutable n : int;  (** spawned worker domains *)
    mutable error : exn option;  (** first exception raised by a worker *)
  }

  let t =
    {
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      job = None;
      seq = 0;
      pending = 0;
      n = 0;
      error = None;
    }

  (** How many worker domains have ever been spawned (for reporting). *)
  let size () = t.n

  let worker ~seen0 idx () =
    let seen = ref seen0 in
    while true do
      Mutex.lock t.m;
      while t.seq = !seen do
        Condition.wait t.work t.m
      done;
      seen := t.seq;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.m;
      (try job idx
       with e ->
         Mutex.lock t.m;
         if t.error = None then t.error <- Some e;
         Mutex.unlock t.m);
      Mutex.lock t.m;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.m
    done

  (* Grow the pool to [n] workers. Called from the launching domain only,
     and never concurrently with a dispatch, so reading [t.seq] for the
     new worker's baseline is race-free. *)
  let ensure (n : int) : unit =
    while t.n < min n max_domains do
      t.n <- t.n + 1;
      ignore (Domain.spawn (worker ~seen0:t.seq t.n))
    done

  let dispatch ~(workers : int) (job : int -> unit) : unit =
    ensure workers;
    Mutex.lock t.m;
    t.job <- Some (fun idx -> if idx <= workers then job idx);
    t.pending <- t.n;
    t.seq <- t.seq + 1;
    t.error <- None;
    Condition.broadcast t.work;
    Mutex.unlock t.m

  let wait () : exn option =
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.idle t.m
    done;
    let e = t.error in
    t.error <- None;
    t.job <- None;
    Mutex.unlock t.m;
    e
end

(* -- Out-of-order multi-launch scheduler --------------------------------------

   The unit of work is a (launch, chunk) pair: submitted launches form a
   ready set, and every participating domain repeatedly claims a chunk of
   work-groups from one of them. A domain keeps claiming from the launch
   it last ran — its execution context (pooled states, lane slots, local
   allocations) stays hot chunk after chunk (cache affinity) — and only
   picks a new launch when the current one is exhausted; the pick prefers
   the ready launch with the fewest domains already on it, so many small
   launches spread across the pool instead of convoying behind one.

   Submission is deferred: [submit] only records the launch; nothing runs
   until [drain], which runs the scheduler to quiescence with the calling
   domain participating as worker 0 and [workers] pool domains joining.
   The command-queue layer ({!Queue}) builds its event / buffer-hazard
   dependency graph on top of [submit_locked]/[l_on_complete] under the
   same lock, so completion cascades are atomic with chunk scheduling. *)

module Sched = struct
  type launch_rec = {
    l_c : Interp.compiled;
    l_args : Interp.rv array;
    l_lsz : int array;
    l_gsz : int array;
    l_ngr : int array;
    l_path : path;
    l_n_groups : int;
    l_chunk : int;  (** max groups per claim (launch-size / width aware) *)
    l_width : int;  (** planned parallel width; bounds guided chunk sizing *)
    mutable l_next : int;  (** first unclaimed group *)
    mutable l_holders : int;  (** domains currently holding a context on us *)
    mutable l_finished : bool;
    mutable l_error : exn option;
    mutable l_error_wg : int;  (** the group that raised [l_error] *)
    l_totals : Trace.totals;
        (** merged holder partials; complete once [l_finished] *)
    mutable l_on_complete : launch_rec -> unit;
        (** fired — scheduler lock held — when the last holder releases a
            fully executed (or poisoned) launch *)
  }

  let m = Mutex.create ()
  let work = Condition.create ()

  (* Launches with unclaimed groups, in submission order. *)
  let ready : launch_rec list ref = ref []

  (* Submitted launches not yet completed (including fully claimed ones
     still executing); [drain] runs until this reaches 0. *)
  let live = ref 0

  (** Run [f] with the scheduler lock held (the queue layer's enqueue /
      completion entry points). *)
  let locked f = Mutex.protect m f

  (* Chunks amortize scheduler locking but bound load imbalance: scale
     with the launch and the width it may spread over, so a 4096-group
     launch claims dozens of groups at a time while an 8-group launch on
     4 domains hands out single groups. *)
  let chunk_for ~n_groups ~width = max 1 (min 64 (n_groups / (max 1 width * 8)))

  let make (c : Interp.compiled) ~(rv_args : Interp.rv array)
      ~(lsz : int array) ~(gsz : int array) ~(ngr : int array) ~(path : path)
      ~(width : int) : launch_rec =
    let n_groups = ngr.(0) * ngr.(1) * ngr.(2) in
    {
      l_c = c;
      l_args = rv_args;
      l_lsz = lsz;
      l_gsz = gsz;
      l_ngr = ngr;
      l_path = path;
      l_n_groups = n_groups;
      l_chunk = chunk_for ~n_groups ~width;
      l_width = max 1 width;
      l_next = 0;
      l_holders = 0;
      l_finished = false;
      l_error = None;
      l_error_wg = max_int;
      l_totals = Trace.empty_totals ();
      l_on_complete = ignore;
    }

  (* Lock held. *)
  let complete_locked (l : launch_rec) : unit =
    l.l_finished <- true;
    decr live;
    l.l_on_complete l;
    (* Completion may have readied dependent commands (queue layer), or
       left nothing live so sleeping workers can exit. *)
    Condition.broadcast work

  (* Lock held. An empty launch completes synchronously. *)
  let submit_locked (l : launch_rec) : unit =
    if l.l_n_groups = 0 then begin
      l.l_finished <- true;
      l.l_on_complete l
    end
    else begin
      incr live;
      ready := !ready @ [ l ];
      Condition.broadcast work
    end

  let submit (l : launch_rec) : unit = locked (fun () -> submit_locked l)

  (* Lock held: claim the next chunk of [l]; an exhausted launch drops out
     of the ready set. Guided self-scheduling as before, per launch: a
     claim takes a share of what remains (remaining / width, capped) so
     early claims amortize locking while the tail degrades to single
     groups. *)
  let claim_locked (l : launch_rec) : (int * int) option =
    if l.l_next >= l.l_n_groups then None
    else begin
      let remaining = l.l_n_groups - l.l_next in
      let sz = max 1 (min l.l_chunk (remaining / l.l_width)) in
      let g0 = l.l_next in
      l.l_next <- g0 + sz;
      if l.l_next >= l.l_n_groups then
        ready := List.filter (fun r -> r != l) !ready;
      Some (g0, sz)
    end

  (* Lock held: least-loaded ready launch, ties to the oldest. *)
  let pick_locked () : launch_rec option =
    List.fold_left
      (fun best l ->
        match best with
        | Some b when b.l_holders <= l.l_holders -> best
        | _ -> Some l)
      None !ready

  (* A domain's hold on a launch: the execution context it runs groups
     with, and a domain-private totals sink merged into the launch at
     release time (allocated on the worker domain — see the false-sharing
     note at the old parallel path, which this preserves). *)
  type holder = { h_l : launch_rec; h_x : exec_ctx; h_tot : Trace.totals }

  (* Per-domain context cache: the few most recent (kernel, geometry,
     path) execution contexts, so repeated launches of the same kernel —
     the bench / autotune / server pattern — rebind arguments into a hot
     context instead of rebuilding states, lane slots and local
     allocations every launch. *)
  let ctx_cache_max = 4

  type cached_ctx = {
    cc_c : Interp.compiled;
    cc_path : path;
    cc_lsz : int array;
    cc_gsz : int array;
    cc_ngr : int array;
    cc_x : exec_ctx;
  }

  let ctx_cache : cached_ctx list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl

  let ctx_for (l : launch_rec) : exec_ctx =
    let cache = Domain.DLS.get ctx_cache in
    let matches cc =
      cc.cc_c == l.l_c && cc.cc_path = l.l_path && cc.cc_lsz = l.l_lsz
      && cc.cc_gsz = l.l_gsz && cc.cc_ngr = l.l_ngr
    in
    match List.find_opt matches !cache with
    | Some cc ->
        let x = cc.cc_x in
        (* Rebind this launch's arguments into the pooled states (every
           state of a context aliases one args array) and drop private
           allocations left by the previous launch; local allocations are
           kept — their storage is cleared per group anyway. *)
        Array.blit l.l_args 0 x.args 0 (Array.length l.l_args);
        x.scratch.Memory.buffers <-
          List.filter
            (fun (b : Memory.buffer) -> b.Memory.space <> Private)
            x.scratch.Memory.buffers;
        cache := cc :: List.filter (fun c -> c != cc) !cache;
        x
    | None ->
        let stats = Trace.fresh_stats ~wg_id:0 ~wg_size:0 in
        let x =
          make_ctx l.l_c ~rv_args:(Array.copy l.l_args)
            ~scratch:(Memory.create ()) ~stats ~lsz:l.l_lsz ~gsz:l.l_gsz
            ~ngr:l.l_ngr ~path:l.l_path ()
        in
        let cc =
          {
            cc_c = l.l_c;
            cc_path = l.l_path;
            cc_lsz = l.l_lsz;
            cc_gsz = l.l_gsz;
            cc_ngr = l.l_ngr;
            cc_x = x;
          }
        in
        cache := cc :: take (ctx_cache_max - 1) !cache;
        x

  (* Execute a claimed chunk (no lock held). A failure poisons the launch:
     the lowest failing group's error is kept, unclaimed groups are
     abandoned, and the error re-raises at the launch's wait point. Groups
     are claimed in increasing order and a chunk stops at its first
     failure, so when groups write disjoint data the lowest failing group
     always runs, and the error is the one a one-domain launch raises
     whatever the domain count and timing. *)
  let execute (h : holder) ~(g0 : int) ~(sz : int) : unit =
    let wg = ref g0 in
    try
      while !wg < g0 + sz do
        run_one_group h.h_x ~wg:!wg;
        Trace.accumulate h.h_tot h.h_x.stats;
        incr wg
      done
    with e ->
      locked (fun () ->
          let l = h.h_l in
          if !wg < l.l_error_wg then begin
            l.l_error <- Some e;
            l.l_error_wg <- !wg
          end;
          if l.l_next < l.l_n_groups then begin
            l.l_next <- l.l_n_groups;
            ready := List.filter (fun r -> r != l) !ready
          end)

  (* Lock held: merge the holder's totals and complete the launch when it
     was the last one out. (A holder only ever sleeps with no launch held,
     so every in-flight chunk belongs to some holder: no-unclaimed-groups
     plus no-holders means fully executed.) *)
  let release_locked (h : holder) : unit =
    let l = h.h_l in
    Trace.merge_totals l.l_totals h.h_tot;
    l.l_holders <- l.l_holders - 1;
    if l.l_next >= l.l_n_groups && l.l_holders = 0 && not l.l_finished then
      complete_locked l

  type action =
    | Run of holder * int * int
    | Acquire of launch_rec
    | Retry
    | Exit

  (** Scheduler worker loop: claim and execute (launch, chunk) pairs until
      nothing is live, or [stop] (checked between chunks) says this domain
      may leave. *)
  let run_worker ~(stop : unit -> bool) : unit =
    let cur : holder option ref = ref None in
    let running = ref true in
    while !running do
      let act =
        locked (fun () ->
            let rec decide () =
              if stop () then begin
                (match !cur with
                | Some h ->
                    release_locked h;
                    cur := None
                | None -> ());
                Exit
              end
              else
                match !cur with
                | Some h -> (
                    match claim_locked h.h_l with
                    | Some (g0, sz) -> Run (h, g0, sz)
                    | None ->
                        release_locked h;
                        cur := None;
                        decide ())
                | None -> (
                    match pick_locked () with
                    | Some l ->
                        l.l_holders <- l.l_holders + 1;
                        Acquire l
                    | None ->
                        if !live = 0 then Exit
                        else begin
                          Condition.wait work m;
                          Retry
                        end)
            in
            decide ())
      in
      match act with
      | Run (h, g0, sz) -> execute h ~g0 ~sz
      | Acquire l ->
          (* Context lookup / construction is heavy; outside the lock. *)
          cur :=
            Some { h_l = l; h_x = ctx_for l; h_tot = Trace.empty_totals () }
      | Retry -> ()
      | Exit -> running := false
    done

  (** Run the scheduler from the launching domain: dispatch [workers] pool
      domains and participate as worker 0. Pool workers always run to
      quiescence (nothing live); [stop] lets the caller's own loop leave
      as soon as the event it waits on has fired — but with pool workers
      dispatched the call still returns only once they have drained
      everything, so a single-launch [drain ~workers:0] with a satisfied
      [stop] is the only early-return case. Only the main domain may call
      this (same rule as [Pool.dispatch]). *)
  let drain ?(stop = fun () -> false) ~(workers : int) () : unit =
    let workers = max 0 (min workers (max_domains - 1)) in
    if workers = 0 then run_worker ~stop
    else begin
      Pool.dispatch ~workers (fun _ -> run_worker ~stop:(fun () -> false));
      run_worker ~stop;
      match Pool.wait () with Some e -> raise e | None -> ()
    end
end

(* -- Launch -------------------------------------------------------------------- *)

(** The most work-items one work-group may hold: 16{^3}, the group
    [Config.box_for] assumes for a kernel that indexes three dimensions.
    The fiber path keeps a tree state per work-item of a group. *)
let max_group_items = 4096

(** Reject an NDRange {!launch} cannot run: a non-positive work-group
    size, a work-group of more than {!max_group_items} work-items (OpenCL's
    [CL_INVALID_WORK_GROUP_SIZE]), or a global size that is not a multiple
    of the work-group size.
    @raise Launch_error naming the violated rule. *)
let check_geometry (cfg : launch_config) : unit =
  let gx, gy, gz = cfg.global and lx, ly, lz = cfg.local in
  if lx <= 0 || ly <= 0 || lz <= 0 then fail "work-group sizes must be positive";
  let m = max_group_items in
  if lx > m || ly > m || lz > m || lx * ly * lz > m then
    fail "a work-group holds at most %d work-items, not %d x %d x %d" m lx ly lz;
  if gx mod lx <> 0 || gy mod ly <> 0 || gz mod lz <> 0 then
    fail "global size must be a multiple of the work-group size"

(** Launch a compiled kernel over the NDRange. [on_group] receives each
    work-group's statistics (with its raw memory events) as soon as the
    group finishes — the performance simulator consumes them streamingly.
    The [wg_stats] record is a pooled buffer reused for the next group:
    [on_group] must extract what it needs before returning and must not
    retain the record.

    [domains > 1] runs work-groups concurrently on that many OCaml domains
    (true multicore execution, on the persistent pool, with guided
    chunks of groups claimed under the scheduler lock); [domains = 0] asks for
    [Domain.recommended_domain_count ()], clamped to a sane range. This is
    for correctness/throughput runs: it requires [on_group] to be [None]
    (the performance simulator needs a deterministic group order) and
    assumes work-groups write disjoint output elements, as well-formed
    data-parallel kernels do.

    [sanitizer] installs a {!Sanitize.t} on every work-item state: each
    load/store is checked for intra-group races and out-of-bounds indices
    (findings accumulate in the sanitizer; the run's buffers are
    unaffected). Sanitized launches run on one domain — the shadow state
    is not thread-safe, so a larger [domains] request is clamped.

    Returns aggregate totals. *)
let launch (c : Interp.compiled) ~(cfg : launch_config)
    ~(args : arg_binding list) ~(mem : Memory.t)
    ?(on_group : (Trace.wg_stats -> unit) option) ?(domains = 1) ?force_path
    ?(sanitizer : Sanitize.t option) () :
    Trace.totals =
  check_geometry cfg;
  let gx, gy, gz = cfg.global and lx, ly, lz = cfg.local in
  let rv_args = bind_args c.Interp.fn args in
  let lsz = [| lx; ly; lz |] in
  let gsz = [| gx; gy; gz |] in
  let ngr = [| gx / lx; gy / ly; gz / lz |] in
  let totals = Trace.empty_totals () in
  let n_groups = ngr.(0) * ngr.(1) * ngr.(2) in
  let domains = if sanitizer <> None then 1 else domains in
  let { path; domains_used = d; _ } =
    plan c ~cfg ?force_path ~domains ()
  in
  if d <= 1 then begin
    (* One pooled execution context for the whole launch: states, the
       stats record array and local allocations all keep their capacity
       across groups. *)
    let stats = Trace.fresh_stats ~wg_id:0 ~wg_size:0 in
    let x =
      make_ctx c ~rv_args ~scratch:mem ~stats ~lsz ~gsz ~ngr ~path
        ?san:sanitizer ()
    in
    for wg = 0 to n_groups - 1 do
      run_one_group x ~wg;
      Trace.accumulate totals stats;
      match on_group with Some f -> f stats | None -> ()
    done;
    totals
  end
  else begin
    if on_group <> None then
      fail "parallel launches cannot stream per-group traces";
    (* One launch through the multi-launch scheduler: the same
       guided-chunk distribution as before, with each domain reusing a
       cached execution context (own scratch memory for local/private
       allocations; global buffers inside rv_args are shared, and
       well-formed kernels write disjoint elements). *)
    let lr = Sched.make c ~rv_args ~lsz ~gsz ~ngr ~path ~width:d in
    Sched.submit lr;
    Sched.drain ~workers:(d - 1) ();
    (match lr.Sched.l_error with Some e -> raise e | None -> ());
    Trace.merge_totals totals lr.Sched.l_totals;
    totals
  end

(** Launch under the sanitizer and return the totals plus every finding.
    An out-of-bounds access aborts the launch after being recorded (normal
    mode would have crashed on the same access); runtime barrier
    divergence still raises {!Launch_error} — drivers render it as a
    diagnostic of its own. The execution itself is bit-identical to a
    normal [launch]. *)
let run_sanitized (c : Interp.compiled) ~(cfg : launch_config)
    ~(args : arg_binding list) ~(mem : Memory.t) ?force_path () :
    Trace.totals * Sanitize.finding list =
  let san = Sanitize.create ~read_only:(read_only_buids c.Interp.fn args) () in
  let totals =
    try launch c ~cfg ~args ~mem ?force_path ~sanitizer:san ()
    with Sanitize.Abort _ -> Trace.empty_totals ()
  in
  (totals, Sanitize.findings san)
