(** Trace-driven performance simulation.

    A simulator instance consumes per-work-group traces (streamed from
    {!Grover_ocl.Runtime.launch}'s [on_group] callback) and charges cycles
    to the core the group runs on, core [wg_id mod cores]:

    - CPU/MIC: work-items of a group execute serially on one core; every
      memory access (global, local and private alike — local memory is
      ordinary memory on cache-only processors) walks that core's L1/L2 and
      the shared LLC; barriers cost a fiber switch per work-item.
    - GPU: work-items execute in warps; the k-th global access of a warp's
      lanes coalesces into as many transactions as it touches distinct
      address segments; local memory is a banked scratch-pad with conflict
      serialisation; barriers are hardware-cheap.

    A trace does not depend on the platform, so one launch can feed one
    simulator per platform. Every group's local buffers and private arrays
    sit at the same addresses in the trace; the simulator moves them into
    the window of the group's core ({!core_window}), as a vendor CPU
    runtime gives each hardware thread local and private memory of its
    own.

    The [wg_stats] handed to {!consume} is a pooled buffer owned by the
    runtime — everything needed from it is charged before returning, and
    no reference to it (or its event arrays) is retained. The simulator's
    own working storage (the lane index and the per-step dedup buffer) is
    likewise pooled in the instance, so replaying a trace allocates
    nothing once the buffers have grown to the largest group.

    Every cache level of a platform shares one line size (on GPUs, the
    coalescing segment), so an access's line or segment number is shifted
    out of its address once and handed to every level. The replay loops
    read [Trace]'s event arrays and decode the info word inline: with
    [-opaque] no call into another module is inlined, and a per-event call
    costs more than the arithmetic it would do.

    The total is the maximum over cores (cores run concurrently). *)

open Grover_ocl
module P = Platform

(** Bytes of local (and of private) address space per core: a Local or
    Private event of a group on core [c] is simulated at its address plus
    [c * core_window]. Global and constant addresses do not move. *)
let core_window = 0x0010_0000

type core = {
  l1 : Cache.t option;
  l2 : Cache.t option;
  mutable busy : float;  (** cycles charged to this core *)
}

type breakdown = {
  mutable compute : float;
  mutable memory : float;
  mutable barrier : float;
  mutable spm : float;
}

type t = {
  plat : P.t;
  simd : int;  (** effective implicit-vectorisation width for this kernel *)
  line_shift : int;
      (** log2 of the line size every cache level shares (CPU) or of the
          coalescing segment (GPU) *)
  cores : core array;
  shared : Cache.t option;  (** LLC (CPU) or device L2 (GPU) *)
  bd : breakdown;
  mutable groups : int;
  mutable lane_start : int array;
  mutable lane_count : int array;
  mutable lane_evs : int array;
      (** lane index: the group's event indices sorted by work-item, each
          lane's in execution order; lane [l] owns
          [lane_evs.(lane_start.(l)) .. lane_evs.(lane_start.(l) + lane_count.(l) - 1)] *)
  mutable uniq_key : int array;
  mutable uniq_write : bool array;
  mutable n_uniq : int;
      (** dedup buffer for one step: the distinct lines, segments or local
          addresses touched, in first-seen order, with their write flag *)
  bank_load : int array;  (** GPU: accesses per scratch-pad bank in one step *)
}

(** [vectorized] — whether the kernel already uses explicit vector types.
    Vendor CPU compilers then disable implicit work-item vectorisation
    (Intel's rule), so work-items run scalar and lane coalescing is lost. *)
let create ?(vectorized = false) (plat : P.t) : t =
  (* The hierarchy's one line size (the L1's, or the GPU segment) and the
     levels that must share it. *)
  let line, levels =
    match plat.P.mem with
    | P.Cpu_mem m ->
        (m.P.l1.Cache.line_bytes, (m.P.l1 :: Option.to_list m.P.l2) @ Option.to_list m.P.llc)
    | P.Gpu_mem g -> (g.P.segment, Option.to_list g.P.l1g @ Option.to_list g.P.l2g)
  in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Simulate.create: " ^ plat.P.name ^ ": " ^ m)) fmt
  in
  if not (Cache.is_pow2 line) then fail "line size %d is not a power of two" line;
  List.iter
    (fun (c : Cache.config) ->
      if c.Cache.line_bytes <> line then
        fail "a %d-byte cache line differs from the hierarchy's %d bytes" c.Cache.line_bytes line)
    levels;
  let mk_core () =
    match plat.P.mem with
    | P.Cpu_mem m ->
        { l1 = Some (Cache.create m.P.l1); l2 = Option.map Cache.create m.P.l2; busy = 0.0 }
    | P.Gpu_mem g -> { l1 = Option.map Cache.create g.P.l1g; l2 = None; busy = 0.0 }
  in
  let shared =
    match plat.P.mem with
    | P.Cpu_mem m -> Option.map Cache.create m.P.llc
    | P.Gpu_mem g -> Option.map Cache.create g.P.l2g
  in
  {
    plat;
    simd = (if vectorized then 1 else max 1 plat.P.simd);
    line_shift = Cache.log2 line;
    cores = Array.init plat.P.cores (fun _ -> mk_core ());
    shared;
    bd = { compute = 0.0; memory = 0.0; barrier = 0.0; spm = 0.0 };
    groups = 0;
    lane_start = [||];
    lane_count = [||];
    lane_evs = [||];
    uniq_key = Array.make 64 0;
    uniq_write = Array.make 64 false;
    n_uniq = 0;
    bank_load =
      (match plat.P.mem with
      | P.Gpu_mem g -> Array.make g.P.banks 0
      | P.Cpu_mem _ -> [||]);
  }

(* -- Lane index and dedup buffer, shared by both engines ---------------------- *)

(* Counting-sort the group's event indices by work-item into [t.lane_evs].
   The sort is stable, so index order within a lane is execution order.
   Events of work-items outside the group ([wi >= wg_size]) are dropped;
   the work-item is a logical shift of the info word, so never negative. *)
let index_lanes (t : t) (s : Trace.wg_stats) : unit =
  let n = s.Trace.wg_size in
  if Array.length t.lane_count < n then begin
    t.lane_start <- Array.make n 0;
    t.lane_count <- Array.make n 0
  end;
  let start = t.lane_start and count = t.lane_count in
  let info = s.Trace.ev_info and wi_shift = Trace.wi_shift in
  Array.fill count 0 n 0;
  for k = 0 to s.Trace.n_events - 1 do
    let wi = info.(k) lsr wi_shift in
    if wi < n then count.(wi) <- count.(wi) + 1
  done;
  let kept = ref 0 in
  for l = 0 to n - 1 do
    start.(l) <- !kept;
    kept := !kept + count.(l);
    count.(l) <- 0
  done;
  if Array.length t.lane_evs < !kept then
    t.lane_evs <- Array.make (max !kept (2 * Array.length t.lane_evs)) 0;
  let evs = t.lane_evs in
  for k = 0 to s.Trace.n_events - 1 do
    let wi = info.(k) lsr wi_shift in
    if wi < n then begin
      let c = count.(wi) in
      evs.(start.(wi) + c) <- k;
      count.(wi) <- c + 1
    end
  done

(* The most events any lane in [first..last] recorded. *)
let depth (t : t) ~first ~last : int =
  let d = ref 0 in
  for l = first to last do
    if t.lane_count.(l) > !d then d := t.lane_count.(l)
  done;
  !d

(* Position of [key] in the dedup buffer, or -1. Searched newest first:
   neighbouring lanes mostly touch the line the previous lane touched. *)
let uniq_find (t : t) (key : int) : int =
  let i = ref (t.n_uniq - 1) in
  while !i >= 0 && t.uniq_key.(!i) <> key do
    decr i
  done;
  !i

let uniq_add (t : t) (key : int) (is_write : bool) : unit =
  let n = t.n_uniq in
  if n = Array.length t.uniq_key then begin
    let keys = Array.make (2 * n) 0 and writes = Array.make (2 * n) false in
    Array.blit t.uniq_key 0 keys 0 n;
    Array.blit t.uniq_write 0 writes 0 n;
    t.uniq_key <- keys;
    t.uniq_write <- writes
  end;
  t.uniq_key.(n) <- key;
  t.uniq_write.(n) <- is_write;
  t.n_uniq <- n + 1

(* -- CPU engine -------------------------------------------------------------- *)

(* Cycles of one line access from core [q]: the latency of the first level
   outward from L1 that holds the line, or memory latency. *)
let cpu_line (t : t) (q : core) (m : P.cpu_mem) ~line ~is_write : int =
  match q.l1 with
  | Some l1 when Cache.access_line l1 ~line ~is_write -> l1.Cache.cfg.Cache.latency
  | _ -> (
      match q.l2 with
      | Some l2 when Cache.access_line l2 ~line ~is_write -> l2.Cache.cfg.Cache.latency
      | _ -> (
          match t.shared with
          | Some llc when Cache.access_line llc ~line ~is_write ->
              llc.Cache.cfg.Cache.latency
          | _ -> m.P.mem_latency))

let consume_cpu (t : t) (m : P.cpu_mem) (s : Trace.wg_stats) : unit =
  let core = s.Trace.wg_id mod Array.length t.cores in
  let q = t.cores.(core) and window = core * core_window in
  let c = t.plat.P.costs in
  let simd = t.simd in
  let compute =
    ((float_of_int s.Trace.int_ops *. c.P.c_int)
    +. (float_of_int s.Trace.float_ops *. c.P.c_float)
    +. (float_of_int s.Trace.special_ops *. c.P.c_special)
    +. (float_of_int s.Trace.branches *. c.P.c_branch))
    /. float_of_int simd
  in
  let dispatch = float_of_int s.Trace.wg_size *. c.P.c_wi_dispatch /. float_of_int simd in
  let barrier =
    float_of_int s.Trace.barrier_rounds
    *. (c.P.c_barrier_round +. (float_of_int s.Trace.wg_size *. c.P.c_barrier_wi))
  in
  (* Vendor CPU runtimes execute [simd] work-items in lockstep vector lanes;
     the k-th access of a lane batch coalesces into one access per distinct
     cache line (an 8-wide unit-stride load is one hardware access). Lines
     are visited in first-seen order — ascending lane, then ascending line —
     and a line is written if any lane writes it. *)
  let shift = t.line_shift and write_bit = Trace.write_bit in
  let space_shift = Trace.space_shift and space_mask = Trace.space_mask in
  let local = Trace.code_local and private_ = Trace.code_private in
  let ev_addr = s.Trace.ev_addr and ev_bytes = s.Trace.ev_bytes and ev_info = s.Trace.ev_info in
  index_lanes t s;
  let memory = ref 0 in
  let n_batches = (s.Trace.wg_size + simd - 1) / simd in
  for b = 0 to n_batches - 1 do
    let first = b * simd in
    let last = min (first + simd) s.Trace.wg_size - 1 in
    for k = 0 to depth t ~first ~last - 1 do
      t.n_uniq <- 0;
      for l = first to last do
        if k < t.lane_count.(l) then begin
          let ei = t.lane_evs.(t.lane_start.(l) + k) in
          let info = ev_info.(ei) in
          let space = (info lsr space_shift) land space_mask in
          let addr =
            if space = local || space = private_ then ev_addr.(ei) + window else ev_addr.(ei)
          in
          let is_write = info land write_bit <> 0 in
          for ln = addr asr shift to (addr + ev_bytes.(ei) - 1) asr shift do
            let i = uniq_find t ln in
            if i < 0 then uniq_add t ln is_write
            else if is_write then t.uniq_write.(i) <- true
          done
        end
      done;
      for i = 0 to t.n_uniq - 1 do
        memory := !memory + cpu_line t q m ~line:t.uniq_key.(i) ~is_write:t.uniq_write.(i)
      done
    done
  done;
  (* Accesses pipeline on real cores; charge a fraction of pure latency. *)
  let memory = float_of_int !memory *. 0.35 in
  q.busy <- q.busy +. compute +. dispatch +. barrier +. memory;
  t.bd.compute <- t.bd.compute +. compute +. dispatch;
  t.bd.barrier <- t.bd.barrier +. barrier;
  t.bd.memory <- t.bd.memory +. memory

(* -- GPU engine --------------------------------------------------------------- *)

(* Cycles of one global-memory transaction for segment number [seg]. *)
let gpu_segment (t : t) (q : core) (g : P.gpu_mem) ~seg ~is_write : float =
  match q.l1 with
  (* A per-CU L1 that caches global loads (Tahiti) absorbs repeated and
     broadcast transactions. *)
  | Some l1 when (not is_write) && Cache.access_line l1 ~line:seg ~is_write ->
      float_of_int l1.Cache.cfg.Cache.latency
  | _ ->
      let extra =
        match t.shared with
        | Some l2 ->
            if Cache.access_line l2 ~line:seg ~is_write then 0.0
            else float_of_int g.P.mem_latency
        | None -> float_of_int g.P.mem_latency
      in
      g.P.trans_cost +. extra

let consume_gpu (t : t) (g : P.gpu_mem) (s : Trace.wg_stats) : unit =
  let core = s.Trace.wg_id mod Array.length t.cores in
  let q = t.cores.(core) and window = core * core_window in
  let c = t.plat.P.costs in
  let warp = max 1 t.plat.P.warp in
  let compute =
    ((float_of_int s.Trace.int_ops *. c.P.c_int)
    +. (float_of_int s.Trace.float_ops *. c.P.c_float)
    +. (float_of_int s.Trace.special_ops *. c.P.c_special)
    +. (float_of_int s.Trace.branches *. c.P.c_branch))
    /. float_of_int warp
  in
  let barrier = float_of_int s.Trace.barrier_rounds *. c.P.c_barrier_round in
  let n_warps = (s.Trace.wg_size + warp - 1) / warp in
  let shift = t.line_shift and write_bit = Trace.write_bit in
  let space_shift = Trace.space_shift and space_mask = Trace.space_mask in
  let global = Trace.code_global and constant = Trace.code_constant in
  let local = Trace.code_local in
  let ev_addr = s.Trace.ev_addr and ev_bytes = s.Trace.ev_bytes and ev_info = s.Trace.ev_info in
  index_lanes t s;
  let memory = ref 0.0 and spm = ref 0.0 in
  for w = 0 to n_warps - 1 do
    let first = w * warp in
    let last = min (first + warp) s.Trace.wg_size - 1 in
    for k = 0 to depth t ~first ~last - 1 do
      (* Coalescing: the distinct aligned segments the k-th global accesses
         of the warp's lanes touch, in first-seen order. A segment's write
         flag is the one of the lowest lane touching it. *)
      t.n_uniq <- 0;
      for l = first to last do
        if k < t.lane_count.(l) then begin
          let ei = t.lane_evs.(t.lane_start.(l) + k) in
          let info = ev_info.(ei) in
          let space = (info lsr space_shift) land space_mask in
          if space = global || space = constant then begin
            let addr = ev_addr.(ei) in
            let is_write = info land write_bit <> 0 in
            for seg = addr asr shift to (addr + ev_bytes.(ei) - 1) asr shift do
              if uniq_find t seg < 0 then uniq_add t seg is_write
            done
          end
        end
      done;
      for i = 0 to t.n_uniq - 1 do
        memory := !memory +. gpu_segment t q g ~seg:t.uniq_key.(i) ~is_write:t.uniq_write.(i)
      done;
      (* Scratch-pad: serialisation by the worst-loaded bank. Lanes making
         the same access (address and direction) broadcast, so each distinct
         one loads its bank once. Byte addresses are non-negative. *)
      t.n_uniq <- 0;
      for l = first to last do
        if k < t.lane_count.(l) then begin
          let ei = t.lane_evs.(t.lane_start.(l) + k) in
          let info = ev_info.(ei) in
          if (info lsr space_shift) land space_mask = local then begin
            let key = ((ev_addr.(ei) + window) lsl 1) lor Bool.to_int (info land write_bit <> 0) in
            if uniq_find t key < 0 then uniq_add t key false
          end
        end
      done;
      if t.n_uniq > 0 then begin
        let conflict = ref 1 in
        for i = 0 to t.n_uniq - 1 do
          let bank = (t.uniq_key.(i) lsr 1) / 4 mod g.P.banks in
          let n = t.bank_load.(bank) + 1 in
          t.bank_load.(bank) <- n;
          if n > !conflict then conflict := n
        done;
        for i = 0 to t.n_uniq - 1 do
          t.bank_load.((t.uniq_key.(i) lsr 1) / 4 mod g.P.banks) <- 0
        done;
        spm := !spm +. (g.P.spm_cost *. float_of_int !conflict)
      end
    done
  done;
  q.busy <- q.busy +. compute +. barrier +. !memory +. !spm;
  t.bd.compute <- t.bd.compute +. compute;
  t.bd.barrier <- t.bd.barrier +. barrier;
  t.bd.memory <- t.bd.memory +. !memory;
  t.bd.spm <- t.bd.spm +. !spm

let consume (t : t) (s : Trace.wg_stats) : unit =
  t.groups <- t.groups + 1;
  match t.plat.P.mem with
  | P.Cpu_mem m -> consume_cpu t m s
  | P.Gpu_mem g -> consume_gpu t g s

(* -- Results -------------------------------------------------------------------- *)

type result = {
  r_platform : string;
  cycles : float;  (** critical-path cycles (max over cores) *)
  seconds : float;
  per_core : float array;
  r_compute : float;
  r_memory : float;
  r_barrier : float;
  r_spm : float;
  r_groups : int;
}

let result (t : t) : result =
  let per_core = Array.map (fun q -> q.busy) t.cores in
  let cycles = Array.fold_left max 0.0 per_core in
  {
    r_platform = t.plat.P.name;
    cycles;
    seconds = cycles /. (t.plat.P.freq_ghz *. 1e9);
    per_core;
    r_compute = t.bd.compute;
    r_memory = t.bd.memory;
    r_barrier = t.bd.barrier;
    r_spm = t.bd.spm;
    r_groups = t.groups;
  }
