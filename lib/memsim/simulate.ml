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
    no reference to it (or its record array) is retained. The simulator's
    own working storage (the lane index, the group's local ids and row
    segments, and the per-step dedup buffer) is likewise pooled in the
    instance, so once the buffers fit the largest group a replay of the
    same group shape allocates only the cache pages its lines touch
    first. A group replays one batch of lanes at a time: a SIMD batch
    on a CPU, a warp on a GPU. A batch whose lanes are all covered by
    every record that touches any of them is {b lockstep}: its [k]-th
    step is the [k]-th of those records, replayed without a lane index,
    and on a CPU a step computes its lines from the record instead of
    visiting lanes. Only the other batches' lanes go into the lane
    index. A lane batch of the interpreter that covers the whole group
    records each access once, so such a group is lockstep in every
    batch; a masked arm whose active lanes form one run records a run,
    and the batches inside it stay lockstep.

    Every cache level of a platform shares one line size (on GPUs, the
    coalescing segment), so an access's line or segment number is shifted
    out of its address once and handed to every level. The replay loops
    read [Trace]'s record array and decode the info word (first
    work-item, width, space, write bit) inline: with [-opaque] no call
    into another module is inlined, and a per-access call costs more than
    the arithmetic it would do.

    The total is the maximum over cores (cores run concurrently). *)

open Grover_ocl
module P = Platform

(* [Stdlib.min]/[max] are polymorphic, and under [-opaque] every call
   reaches [compare_val]; the per-record and per-batch loops compare ints. *)
let[@inline] imin (a : int) (b : int) : int = if a < b then a else b
let[@inline] imax (a : int) (b : int) : int = if a > b then a else b

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
  batch : int;  (** lanes replayed in one step: [simd] on a CPU, the warp on a GPU *)
  line_shift : int;
      (** log2 of the line size every cache level shares (CPU) or of the
          coalescing segment (GPU) *)
  cores : core array;
  shared : Cache.t option;  (** LLC (CPU) or device L2 (GPU) *)
  bd : breakdown;
  mutable groups : int;
  mutable b_lock : bool array;
      (** per batch of the group: is it lockstep? Set by {!index_lanes} *)
  mutable b_seg : int array;  (** per batch: its segment *)
  mutable b_depth : int array;
      (** per batch that is not lockstep: the most accesses any of its
          lanes has *)
  mutable s_first : int array;
      (** per segment (a run of batches touched by the same records):
          its first batch; one more entry ends the last segment *)
  mutable s_start : int array;
  mutable s_depth : int array;
      (** per segment: the records touching it are the word offsets
          [b_rec.(s_start.(g) .. s_start.(g) + s_depth.(g) - 1)], in
          stored order; [s_start] -1: every record, record [k] [k]-th *)
  mutable b_rec : int array;
  mutable lane_start : int array;
  mutable lane_count : int array;
  mutable lane_addr : int array;
      (** lane index of the lanes outside lockstep batches: each lane's
          accesses in execution order, as the address (moved into the
          core's window if Local or Private) and the info word; lane [l]
          owns positions [lane_start.(l) .. lane_start.(l) +
          lane_count.(l) - 1] *)
  mutable lane_info : int array;
  mutable geom_n : int;
  mutable geom_x : int;
  mutable geom_y : int;
      (** the group shape ([wg_size], [lsx], [lsy]) the next six arrays
          and the per-batch ones describe *)
  mutable lane_x : int array;  (** local id of each lane of the group *)
  mutable lane_batch : int array;  (** the batch of each lane *)
  mutable lane_y : int array;
  mutable lane_z : int array;
  mutable seg_lane : int array;
      (** CPU: row segments, runs of lanes of one batch sharing [ly]
          and [lz], by first lane and length; batch [b]'s are
          [batch_seg.(b) .. batch_seg.(b + 1) - 1] *)
  mutable seg_len : int array;
  mutable batch_seg : int array;
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
  let simd = if vectorized then 1 else max 1 plat.P.simd in
  {
    plat;
    simd;
    batch = (match plat.P.mem with P.Cpu_mem _ -> simd | P.Gpu_mem _ -> max 1 plat.P.warp);
    line_shift = Cache.log2 line;
    cores = Array.init plat.P.cores (fun _ -> mk_core ());
    shared;
    bd = { compute = 0.0; memory = 0.0; barrier = 0.0; spm = 0.0 };
    groups = 0;
    b_lock = [||];
    b_seg = [||];
    b_depth = [||];
    s_first = [||];
    s_start = [||];
    s_depth = [||];
    b_rec = [||];
    lane_start = [||];
    lane_count = [||];
    lane_addr = [||];
    lane_info = [||];
    geom_n = -1;
    geom_x = 0;
    geom_y = 0;
    lane_x = [||];
    lane_batch = [||];
    lane_y = [||];
    lane_z = [||];
    seg_lane = [||];
    seg_len = [||];
    batch_seg = [||];
    uniq_key = Array.make 64 0;
    uniq_write = Array.make 64 false;
    n_uniq = 0;
    bank_load =
      (match plat.P.mem with
      | P.Gpu_mem g -> Array.make g.P.banks 0
      | P.Cpu_mem _ -> [||]);
  }

(* -- Lane index and dedup buffer, shared by both engines ---------------------- *)

(* The local id of every lane of a group of [s]'s shape, the row
   segments of each batch, and room for the per-batch facts, kept until
   the shape changes. *)
let geometry (t : t) (s : Trace.wg_stats) : unit =
  let n = s.Trace.wg_size and lsx = s.Trace.lsx and lsy = s.Trace.lsy in
  if t.geom_n <> n || t.geom_x <> lsx || t.geom_y <> lsy then begin
    t.geom_n <- n;
    t.geom_x <- lsx;
    t.geom_y <- lsy;
    let nb = (n + t.batch - 1) / t.batch in
    t.b_lock <- Array.make nb false;
    t.b_seg <- Array.make nb 0;
    t.b_depth <- Array.make nb 0;
    t.s_first <- Array.make (nb + 1) 0;
    t.s_start <- Array.make nb 0;
    t.s_depth <- Array.make (nb + 1) 0;
    t.lane_x <- Array.make n 0;
    t.lane_batch <- Array.init n (fun l -> l / t.batch);
    t.lane_y <- Array.make n 0;
    t.lane_z <- Array.make n 0;
    t.seg_lane <- Array.make n 0;
    t.seg_len <- Array.make n 0;
    t.batch_seg <- Array.make (nb + 1) 0;
    let x = ref 0 and y = ref 0 and z = ref 0 and segs = ref 0 in
    for l = 0 to n - 1 do
      t.lane_x.(l) <- !x;
      t.lane_y.(l) <- !y;
      t.lane_z.(l) <- !z;
      if l mod t.batch = 0 then t.batch_seg.(l / t.batch) <- !segs;
      if l mod t.batch = 0 || !x = 0 then begin
        t.seg_lane.(!segs) <- l;
        incr segs
      end;
      t.seg_len.(!segs - 1) <- t.seg_len.(!segs - 1) + 1;
      if !x + 1 < lsx then incr x
      else begin
        x := 0;
        if !y + 1 < lsy then incr y
        else begin
          y := 0;
          incr z
        end
      end
    done;
    t.batch_seg.(nb) <- !segs
  end

(* Decide, per batch of the group, whether it is lockstep, and index
   the other batches by lane. A record covering lanes [f .. e] leaves a
   lane of a batch it touches uncovered only if it starts or ends inside
   that batch, so one pass over the records finds every batch that is
   not lockstep. The same pass cuts the batches into segments at every
   batch a record starts in and after every batch one ends in: each
   record covers whole segments, every batch of a segment is touched by
   the same records, and only a segment's first or last batch can fail
   to be lockstep. Each segment lists the records touching it, in
   stored order, so a lockstep batch's [k]-th step is the [k]-th record
   of its segment's list. In every other batch, each record covering
   lanes [f .. e] gives each of its lanes there one access, in stored
   order, so index order within a lane is execution order; its address
   is computed here, once, so that a step reads two words per lane.
   Lanes outside the group ([>= wg_size]) are dropped; the first lane is
   a logical shift of the info word, so never negative. *)
let index_records (t : t) (s : Trace.wg_stats) : unit =
  let n = s.Trace.wg_size and nr = s.Trace.n_recs and bw = t.batch in
  let nb = (n + bw - 1) / bw in
  if Array.length t.lane_count <= n then begin
    t.lane_start <- Array.make (n + 1) 0;
    t.lane_count <- Array.make (n + 1) 0
  end;
  let lock = t.b_lock and bseg = t.b_seg and depth = t.b_depth and batch = t.lane_batch in
  let sfirst = t.s_first and sstart = t.s_start and sdepth = t.s_depth in
  let start = t.lane_start and count = t.lane_count in
  let recs = s.Trace.recs and rw = Trace.rec_words in
  let f_info = Trace.f_info and f_lanes = Trace.f_lanes and wi_shift = Trace.wi_shift in
  (* verdicts, cuts (flagged in [bseg]) and, as differences, the records
     covering each lane *)
  Array.fill lock 0 nb true;
  Array.fill bseg 0 nb 0;
  Array.fill count 0 (n + 1) 0;
  for r = 0 to nr - 1 do
    let f = recs.((r * rw) + f_info) lsr wi_shift in
    let e = imin n (f + recs.((r * rw) + f_lanes)) - 1 in
    if f <= e then begin
      let bf = batch.(f) and be = batch.(e) in
      if f <> bf * bw then lock.(bf) <- false;
      if e + 1 <> imin n ((be + 1) * bw) then lock.(be) <- false;
      bseg.(bf) <- 1;
      if be + 1 < nb then bseg.(be + 1) <- 1;
      count.(f) <- count.(f) + 1;
      count.(e + 1) <- count.(e + 1) - 1
    end
  done;
  let ns = ref 0 and open_ = ref false in
  for b = 0 to nb - 1 do
    if b = 0 || bseg.(b) = 1 then begin
      sfirst.(!ns) <- b;
      incr ns
    end;
    bseg.(b) <- !ns - 1;
    if not lock.(b) then open_ := true
  done;
  let ns = !ns and open_ = !open_ in
  sfirst.(ns) <- nb;
  (* each segment's list: its start in [b_rec], and room for as many
     records as touch it *)
  let listed = ref 0 in
  Array.fill sdepth 0 (ns + 1) 0;
  for r = 0 to nr - 1 do
    let f = recs.((r * rw) + f_info) lsr wi_shift in
    let e = imin n (f + recs.((r * rw) + f_lanes)) - 1 in
    if f <= e then begin
      let gf = bseg.(batch.(f)) and ge = bseg.(batch.(e)) + 1 in
      sdepth.(gf) <- sdepth.(gf) + 1;
      sdepth.(ge) <- sdepth.(ge) - 1
    end
  done;
  let touching = ref 0 in
  for g = 0 to ns - 1 do
    touching := !touching + sdepth.(g);
    sdepth.(g) <- 0;
    sstart.(g) <- !listed;
    listed := !listed + !touching
  done;
  (* lane offsets in the batches that are not lockstep *)
  let covering = ref 0 and kept = ref 0 in
  if open_ then
    for b = 0 to nb - 1 do
      if lock.(b) then
        for l = b * bw to imin n ((b * bw) + bw) - 1 do
          covering := !covering + count.(l)
        done
      else begin
        depth.(b) <- 0;
        for l = b * bw to imin n ((b * bw) + bw) - 1 do
          covering := !covering + count.(l);
          start.(l) <- !kept;
          kept := !kept + !covering;
          if !covering > depth.(b) then depth.(b) <- !covering;
          count.(l) <- 0
        done
      end
    done;
  if Array.length t.b_rec < !listed then
    t.b_rec <- Array.make (max !listed (2 * Array.length t.b_rec)) 0;
  if Array.length t.lane_addr < !kept then begin
    let cap = max !kept (2 * Array.length t.lane_addr) in
    t.lane_addr <- Array.make cap 0;
    t.lane_info <- Array.make cap 0
  end;
  let window = s.Trace.wg_id mod Array.length t.cores * core_window in
  let space_shift = Trace.space_shift and space_mask = Trace.space_mask in
  let local = Trace.code_local and private_ = Trace.code_private in
  let lx = t.lane_x and ly = t.lane_y and lz = t.lane_z and brec = t.b_rec in
  if open_ || !listed > 0 then
    for r = 0 to nr - 1 do
      let k = r * rw in
      let info = recs.(k + f_info) in
      let f = info lsr wi_shift in
      let e = imin n (f + recs.(k + f_lanes)) - 1 in
      if f <= e then
        for g = bseg.(batch.(f)) to bseg.(batch.(e)) do
          brec.(sstart.(g) + sdepth.(g)) <- k;
          sdepth.(g) <- sdepth.(g) + 1;
          let b0 = sfirst.(g) and b1 = sfirst.(g + 1) - 1 in
          for j = 0 to Bool.to_int (b1 > b0) do
            let b = if j = 0 then b0 else b1 in
            if not lock.(b) then begin
              let space = (info lsr space_shift) land space_mask in
              let base = recs.(k + Trace.f_base) + if space = local || space = private_ then window else 0 in
              let cx = recs.(k + Trace.f_cx) and cy = recs.(k + Trace.f_cy) and cz = recs.(k + Trace.f_cz) in
              for l = imax f (b * bw) to imin e ((b * bw) + bw - 1) do
                let i = start.(l) + count.(l) in
                t.lane_addr.(i) <- base + (cx * lx.(l)) + (cy * ly.(l)) + (cz * lz.(l));
                t.lane_info.(i) <- info;
                count.(l) <- count.(l) + 1
              done
            end
          done
        done
    done

(* A group whose records all start at work-item 0 and cover it (or that
   has none) is lockstep in every batch, one segment listing nothing, as
   one pass over the records shows; other groups go to {!index_records}. *)
let index_lanes (t : t) (s : Trace.wg_stats) : unit =
  geometry t s;
  let n = s.Trace.wg_size and nr = s.Trace.n_recs and recs = s.Trace.recs in
  let r = ref 0 and rw = Trace.rec_words in
  while
    !r < nr && recs.((!r * rw) + Trace.f_info) lsr Trace.wi_shift = 0
    && recs.((!r * rw) + Trace.f_lanes) >= n
  do
    incr r
  done;
  if !r < nr then index_records t s
  else begin
    let nb = (n + t.batch - 1) / t.batch in
    Array.fill t.b_lock 0 nb true;
    Array.fill t.b_seg 0 nb 0;
    t.s_start.(0) <- -1;
    t.s_depth.(0) <- nr
  end

(* The per-batch lockstep verdicts of group [s] on this simulator's
   batches (SIMD batches on a CPU, warps on a GPU). *)
let lockstep_batches (t : t) (s : Trace.wg_stats) : bool array =
  index_lanes t s;
  Array.sub t.b_lock 0 ((s.Trace.wg_size + t.batch - 1) / t.batch)

(* Position of [key] in the dedup buffer, or -1. Searched newest first:
   neighbouring lanes mostly touch the line the previous lane touched, so
   both engines compare the newest entry inline before calling this. *)
let uniq_find (t : t) (key : int) : int =
  let i = ref (t.n_uniq - 1) in
  while !i >= 0 && t.uniq_key.(!i) <> key do
    decr i
  done;
  !i

(* Is [key] the dedup buffer's newest entry? *)
let[@inline] newest (t : t) (key : int) : bool =
  t.n_uniq > 0 && t.uniq_key.(t.n_uniq - 1) = key

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

(* Add line [ln] to a CPU step's dedup buffer, or mark it written. *)
let[@inline] insert_line (t : t) (ln : int) (is_write : bool) : unit =
  if newest t ln then begin
    if is_write then t.uniq_write.(t.n_uniq - 1) <- true
  end
  else
    let i = uniq_find t ln in
    if i < 0 then uniq_add t ln is_write else if is_write then t.uniq_write.(i) <- true

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
     and a line is written if any lane writes it. Lane [l] of a record
     accesses [base + cx·lx + cy·ly + cz·lz] at its local id. A lockstep
     batch's [k]-th step is its [k]-th listed record; any other batch's
     reads the lane index. *)
  let shift = t.line_shift and line = 1 lsl t.line_shift and write_bit = Trace.write_bit in
  let space_shift = Trace.space_shift and space_mask = Trace.space_mask in
  let bytes_shift = Trace.bytes_shift and bytes_mask = Trace.bytes_mask in
  let local = Trace.code_local and private_ = Trace.code_private in
  let recs = s.Trace.recs and f_info = Trace.f_info in
  let f_base = Trace.f_base and f_cx = Trace.f_cx and f_cy = Trace.f_cy and f_cz = Trace.f_cz in
  index_lanes t s;
  let lx = t.lane_x and ly = t.lane_y and lz = t.lane_z in
  let memory = ref 0 in
  let n_batches = (s.Trace.wg_size + simd - 1) / simd in
  for b = 0 to n_batches - 1 do
    let first = b * simd in
    let last = imin (first + simd) s.Trace.wg_size - 1 in
    let lock = t.b_lock.(b) and sg = t.b_seg.(b) in
    let listed = t.s_start.(sg) in
    for k = 0 to (if lock then t.s_depth.(sg) else t.b_depth.(b)) - 1 do
      t.n_uniq <- 0;
      if lock then begin
        (* One record for the whole step. *)
        let r = if listed < 0 then k * Trace.rec_words else t.b_rec.(listed + k) in
        let info = recs.(r + f_info) in
        let space = (info lsr space_shift) land space_mask in
        let base = recs.(r + f_base) + if space = local || space = private_ then window else 0 in
        let is_write = info land write_bit <> 0 in
        let bytes = (info lsr bytes_shift) land bytes_mask in
        let cx = recs.(r + f_cx) and cy = recs.(r + f_cy) and cz = recs.(r + f_cz) in
        if cx >= 0 && cx <= line then
          (* Along a row segment the lanes' addresses ascend by [cx] <=
             [line] bytes, so the segment touches exactly the lines from
             its first lane's first to its last lane's last, first seen
             in ascending order. A batch of one segment charges them as
             they come: they are already distinct and in order. *)
          let one = t.batch_seg.(b + 1) - t.batch_seg.(b) = 1 in
          for g = t.batch_seg.(b) to t.batch_seg.(b + 1) - 1 do
            let l = t.seg_lane.(g) in
            let a = base + (cx * lx.(l)) + (cy * ly.(l)) + (cz * lz.(l)) in
            for ln = a asr shift to (a + (cx * (t.seg_len.(g) - 1)) + bytes - 1) asr shift do
              if one then memory := !memory + cpu_line t q m ~line:ln ~is_write
              else insert_line t ln is_write
            done
          done
        else
          for l = first to last do
            let a = base + (cx * lx.(l)) + (cy * ly.(l)) + (cz * lz.(l)) in
            for ln = a asr shift to (a + bytes - 1) asr shift do
              insert_line t ln is_write
            done
          done
      end
      else
        for l = first to last do
          if k < t.lane_count.(l) then begin
            let i = t.lane_start.(l) + k in
            let addr = t.lane_addr.(i) and info = t.lane_info.(i) in
            let is_write = info land write_bit <> 0 in
            let bytes = (info lsr bytes_shift) land bytes_mask in
            for ln = addr asr shift to (addr + bytes - 1) asr shift do
              insert_line t ln is_write
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
  let bytes_shift = Trace.bytes_shift and bytes_mask = Trace.bytes_mask in
  let recs = s.Trace.recs and f_info = Trace.f_info in
  let f_base = Trace.f_base and f_cx = Trace.f_cx and f_cy = Trace.f_cy and f_cz = Trace.f_cz in
  index_lanes t s;
  let lx = t.lane_x and ly = t.lane_y and lz = t.lane_z in
  (* Lane [l]'s [k]-th access: its info word, and its address moved into
     the core's window if Local or Private; in a lockstep warp, [r] is
     the word offset of the warp's [k]-th listed record. *)
  let info_at ~lock ~r l k = if lock then recs.(r + f_info) else t.lane_info.(t.lane_start.(l) + k) in
  let addr_at ~lock ~r l k =
    if lock then
      let space = (recs.(r + f_info) lsr space_shift) land space_mask in
      recs.(r + f_base) + (recs.(r + f_cx) * lx.(l)) + (recs.(r + f_cy) * ly.(l))
      + (recs.(r + f_cz) * lz.(l))
      + if space = local || space = Trace.code_private then window else 0
    else t.lane_addr.(t.lane_start.(l) + k)
  in
  let memory = ref 0.0 and spm = ref 0.0 in
  for w = 0 to n_warps - 1 do
    let first = w * warp in
    let last = imin (first + warp) s.Trace.wg_size - 1 in
    let lock = t.b_lock.(w) and sg = t.b_seg.(w) in
    let listed = t.s_start.(sg) in
    for k = 0 to (if lock then t.s_depth.(sg) else t.b_depth.(w)) - 1 do
      let r = if not lock then 0 else if listed < 0 then k * Trace.rec_words else t.b_rec.(listed + k) in
      (* Coalescing: the distinct aligned segments the k-th global accesses
         of the warp's lanes touch, in first-seen order. A segment's write
         flag is the one of the lowest lane touching it. *)
      t.n_uniq <- 0;
      for l = first to last do
        if lock || k < t.lane_count.(l) then begin
          let info = info_at ~lock ~r l k in
          let space = (info lsr space_shift) land space_mask in
          if space = global || space = constant then begin
            let addr = addr_at ~lock ~r l k in
            let is_write = info land write_bit <> 0 in
            let bytes = (info lsr bytes_shift) land bytes_mask in
            for seg = addr asr shift to (addr + bytes - 1) asr shift do
              if not (newest t seg) && uniq_find t seg < 0 then uniq_add t seg is_write
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
        if lock || k < t.lane_count.(l) then begin
          let info = info_at ~lock ~r l k in
          if (info lsr space_shift) land space_mask = local then begin
            let key = (addr_at ~lock ~r l k lsl 1) lor Bool.to_int (info land write_bit <> 0) in
            if not (newest t key) && uniq_find t key < 0 then uniq_add t key false
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
