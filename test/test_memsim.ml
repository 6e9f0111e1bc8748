(* Memory-simulator tests: cache behaviour (hit/miss/LRU/writeback/set
   conflicts), GPU coalescing and bank conflicts, and end-to-end sanity of
   the platform models. *)

open Grover_ocl
module M = Grover_memsim
module Cache = M.Cache
module P = M.Platform
module Sim = M.Simulate

let cfg ?(size = 1024) ?(line = 64) ?(ways = 2) ?(latency = 4) () =
  { Cache.size_bytes = size; line_bytes = line; ways; latency }

(* -- Cache ----------------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Cache.create (cfg ()) in
  Alcotest.(check int) "first access misses" 1
    (Cache.access c ~addr:0 ~bytes:4 ~is_write:false);
  Alcotest.(check int) "second access hits" 0
    (Cache.access c ~addr:32 ~bytes:4 ~is_write:false);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.s_hits;
  Alcotest.(check int) "misses" 1 s.Cache.s_misses

let test_cache_line_spanning () =
  let c = Cache.create (cfg ()) in
  (* 8 bytes straddling a line boundary touch two lines. *)
  Alcotest.(check int) "two misses" 2
    (Cache.access c ~addr:60 ~bytes:8 ~is_write:false)

let test_cache_lru_eviction () =
  (* 1 KiB, 2-way, 64B lines -> 8 sets. Lines 0, 8, 16 map to set 0. *)
  let c = Cache.create (cfg ()) in
  let touch line = Cache.access c ~addr:(line * 64) ~bytes:1 ~is_write:false in
  ignore (touch 0);
  ignore (touch 8);
  ignore (touch 0);
  (* line 8 is now LRU *)
  ignore (touch 16);
  (* evicts 8 *)
  Alcotest.(check int) "line 0 still resident" 0 (touch 0);
  Alcotest.(check int) "line 8 was evicted" 1 (touch 8)

let test_cache_set_conflict_thrash () =
  (* Three lines cycling through a 2-way set always miss. *)
  let c = Cache.create (cfg ()) in
  let touch line = Cache.access c ~addr:(line * 64) ~bytes:1 ~is_write:false in
  for _ = 1 to 3 do
    ignore (touch 0);
    ignore (touch 8);
    ignore (touch 16)
  done;
  let s = Cache.stats c in
  Alcotest.(check int) "every access misses" 9 s.Cache.s_misses

let test_cache_writeback () =
  let c = Cache.create (cfg ()) in
  ignore (Cache.access c ~addr:0 ~bytes:4 ~is_write:true);
  ignore (Cache.access c ~addr:(8 * 64) ~bytes:4 ~is_write:false);
  ignore (Cache.access c ~addr:(16 * 64) ~bytes:4 ~is_write:false);
  (* The dirty line 0 must have been written back on eviction. *)
  let s = Cache.stats c in
  Alcotest.(check int) "one writeback" 1 s.Cache.s_writebacks

let test_cache_reset () =
  let c = Cache.create (cfg ()) in
  ignore (Cache.access c ~addr:0 ~bytes:4 ~is_write:false);
  Cache.reset c;
  let s = Cache.stats c in
  Alcotest.(check int) "misses cleared" 0 s.Cache.s_misses;
  Alcotest.(check int) "cold again" 1 (Cache.access c ~addr:0 ~bytes:4 ~is_write:false)

(* Degenerate geometries are refused up front, naming the field, instead
   of dividing by zero in [create] or on the first [access]. *)
let test_cache_rejects ~reason config () =
  Alcotest.check_raises reason (Invalid_argument ("Cache.create: " ^ reason)) (fun () ->
      ignore (Cache.create config))

let rejected_configs =
  [ ("line_bytes = 0", "line_bytes must be a positive power of two", cfg ~line:0 ());
    ( "line_bytes = 48",
      "line_bytes must be a positive power of two",
      cfg ~size:(48 * 2 * 8) ~line:48 () );
    ("ways = 0", "ways must be positive", cfg ~ways:0 ());
    ("ways = -2", "ways must be positive", cfg ~ways:(-2) ());
    ("size_bytes = 0", "size_bytes must be positive", cfg ~size:0 ()) ]

let prop_cache_miss_bound =
  (* Total misses never exceed total accesses; unique lines lower-bound. *)
  QCheck.Test.make ~name:"cache miss bounds" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_range 0 4095))
    (fun addrs ->
      let c = Cache.create (cfg ()) in
      List.iter
        (fun a -> ignore (Cache.access c ~addr:a ~bytes:1 ~is_write:false))
        addrs;
      let s = Cache.stats c in
      let unique_lines =
        List.sort_uniq compare (List.map (fun a -> a / 64) addrs)
      in
      s.Cache.s_hits + s.Cache.s_misses = List.length addrs
      && s.Cache.s_misses >= List.length unique_lines)

(* A plain reference LRU: each set is a list of resident lines; a lookup
   scans every way and the victim is the line of minimum recency. *)
module Ref_lru = struct
  type slot = { tag : int; mutable last : int; mutable dirty : bool }

  type t = {
    line_bytes : int;
    ways : int;
    sets : slot list array;
    mutable tick : int;
  }

  let create (c : Cache.config) =
    {
      line_bytes = c.Cache.line_bytes;
      ways = c.Cache.ways;
      sets = Array.make (c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.ways)) [];
      tick = 0;
    }

  (* (hit, wrote back a dirty victim) *)
  let access_line r line is_write =
    r.tick <- r.tick + 1;
    let set = line mod Array.length r.sets in
    let slots = r.sets.(set) in
    match List.filter (fun s -> s.tag = line) slots with
    | [ s ] ->
        s.last <- r.tick;
        if is_write then s.dirty <- true;
        (true, false)
    | _ :: _ :: _ -> failwith "duplicate tag in a set"
    | [] ->
        let fresh = { tag = line; last = r.tick; dirty = is_write } in
        if List.length slots < r.ways then begin
          r.sets.(set) <- fresh :: slots;
          (false, false)
        end
        else begin
          let victim =
            List.fold_left (fun v s -> if s.last < v.last then s else v) (List.hd slots) slots
          in
          r.sets.(set) <- fresh :: List.filter (fun s -> s != victim) slots;
          (false, victim.dirty)
        end
end

(* Set indices by mask (a power-of-two set count) and by [mod]:
   8 sets x 2 ways; 5 sets x 3 ways; the SNB LLC (20 MiB, 16 ways: 20480
   sets, not a power of two); direct-mapped, 8 sets x 1 way; 4 sets x 16
   ways; 20 sets x 2 ways, more sets than a page holds and not a multiple
   of it. One way and a hit in the last way are the edge cases of keeping
   each set most-recent first. *)
let diff_configs =
  [ cfg ();
    cfg ~size:(5 * 3 * 32) ~line:32 ~ways:3 ();
    { Cache.size_bytes = 20 * 1024 * 1024; line_bytes = 64; ways = 16; latency = 40 };
    cfg ~size:(8 * 64) ~ways:1 ();
    cfg ~size:(4 * 16 * 32) ~line:32 ~ways:16 ();
    cfg ~size:(20 * 2 * 64) ~ways:2 () ]

let prop_cache_matches_reference =
  let open QCheck in
  let gen =
    Gen.(
      int_range 0 (List.length diff_configs - 1) >>= fun ci ->
      let c = List.nth diff_configs ci in
      let sets = c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.ways) in
      (* Few sets, in the first, middle and last pages, and more lines per
         set than ways, so evictions happen. *)
      let near =
        List.sort_uniq compare
          (List.filter_map
             (fun s -> if s >= 0 && s < sets then Some s else None)
             [ 0; 1; 2; (sets / 2) - 1; sets / 2; sets - 2; sets - 1 ])
      in
      let access =
        map
          (fun (s, j, off, bytes, w) ->
            (((s + (sets * j)) * c.Cache.line_bytes) + off, bytes, w))
          (tup5 (oneofl near) (int_range 0 (2 * c.Cache.ways)) (int_range 0 (c.Cache.line_bytes - 1))
             (oneofl [ 1; 4; 8; 16; c.Cache.line_bytes + 8 ])
             bool)
      in
      list_size (int_range 1 300) access >>= fun accs ->
      (* [Cache.reset] before access [reset_at]; past the end: never. *)
      int_range 0 (List.length accs + 5) >|= fun reset_at -> (ci, accs, reset_at))
  in
  Test.make ~name:"Cache.access matches a reference LRU" ~count:250
    (make gen ~print:(fun (ci, accs, reset_at) ->
         Printf.sprintf "config %d, %d accesses, reset before %d: %s" ci (List.length accs) reset_at
           (String.concat " "
              (List.map (fun (a, b, w) -> Printf.sprintf "%d+%d%s" a b (if w then "w" else "")) accs))))
    (fun (ci, accs, reset_at) ->
      let c = List.nth diff_configs ci in
      let cache = Cache.create c and r = ref (Ref_lru.create c) in
      List.for_all
        (fun (k, (addr, bytes, is_write)) ->
          let cleared =
            k <> reset_at
            ||
            (Cache.reset cache;
             r := Ref_lru.create c;
             Cache.stats cache = { Cache.s_hits = 0; s_misses = 0; s_writebacks = 0 })
          in
          let before = Cache.stats cache in
          let missed = Cache.access cache ~addr ~bytes ~is_write in
          let after = Cache.stats cache in
          let hits = ref 0 and misses = ref 0 and wbs = ref 0 in
          for line = addr / c.Cache.line_bytes to (addr + bytes - 1) / c.Cache.line_bytes do
            let hit, wb = Ref_lru.access_line !r line is_write in
            if hit then incr hits else incr misses;
            if wb then incr wbs
          done;
          cleared
          && missed = !misses
          && after.Cache.s_hits - before.Cache.s_hits = !hits
          && after.Cache.s_misses - before.Cache.s_misses = !misses
          && after.Cache.s_writebacks - before.Cache.s_writebacks = !wbs)
        (List.mapi (fun k a -> (k, a)) accs))

(* A cache allocates a set's page on the set's first access, and only
   that page; [reset] drops every page. The last page of a set count
   that is not a multiple of the page holds only the sets that remain. *)
let test_cache_pages () =
  let held c = Array.fold_left (fun n p -> n + Bool.to_int (p <> [||])) 0 c.Cache.pages in
  let words c = Array.fold_left (fun n p -> n + Array.length p) 0 c.Cache.pages in
  let llc = { Cache.size_bytes = 20 * 1024 * 1024; line_bytes = 64; ways = 16; latency = 40 } in
  let c = Cache.create llc in
  Alcotest.(check int) "one table entry per page" (20480 / Cache.page_sets)
    (Array.length c.Cache.pages);
  Alcotest.(check int) "fresh: no page" 0 (held c);
  let line = 12345 in
  ignore (Cache.access_line c ~line ~is_write:true);
  Alcotest.(check int) "one access: one page" 1 (held c);
  Alcotest.(check int) "its set's page" (Cache.page_sets * 16)
    (Array.length c.Cache.pages.(line mod 20480 / Cache.page_sets));
  Alcotest.(check int) "words held" (Cache.page_sets * 16) (words c);
  Cache.reset c;
  Alcotest.(check int) "reset: no page" 0 (held c);
  Alcotest.(check int) "reset: no words" 0 (words c);
  let c = Cache.create (cfg ~size:(20 * 2 * 64) ~ways:2 ()) in
  ignore (Cache.access_line c ~line:19 ~is_write:false);
  Alcotest.(check int) "last page: 4 sets x 2 ways" 8 (words c);
  ignore (Cache.access_line c ~line:0 ~is_write:false);
  Alcotest.(check int) "first page: 16 sets x 2 ways" (8 + 32) (words c)

(* -- Synthetic traces through the simulator ---------------------------------- *)

let mk_stats ?(wg_id = 0) ~wg_size events =
  let s = Grover_ocl.Trace.fresh_stats ~wg_id ~wg_size in
  List.iter (fun e -> Trace.push_event s e) events;
  s

let ev ~wi ~addr ?(bytes = 4) ?(write = false) ?(space = Grover_ir.Ssa.Global) () =
  { Trace.addr; bytes; is_write = write; space; wi }

let gpu_mem_cycles plat events ~wg_size =
  let sim = Sim.create plat in
  Sim.consume sim (mk_stats ~wg_size events);
  let r = Sim.result sim in
  r.Sim.r_memory

let test_gpu_coalesced_vs_strided () =
  (* 32 lanes reading 32 consecutive floats = 1 segment; reading a 128-byte
     strided column = 32 segments. *)
  let coalesced =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x1000 + (4 * l)) ())
  in
  let strided = List.init 32 (fun l -> ev ~wi:l ~addr:(0x1000 + (128 * l)) ()) in
  let c1 = gpu_mem_cycles P.fermi coalesced ~wg_size:32 in
  let c2 = gpu_mem_cycles P.fermi strided ~wg_size:32 in
  Alcotest.(check bool)
    (Printf.sprintf "strided (%.0f) >= 16x coalesced (%.0f)" c2 c1)
    true
    (c2 >= 16.0 *. c1)

let test_gpu_broadcast_single_transaction () =
  let broadcast = List.init 32 (fun l -> ev ~wi:l ~addr:0x2000 ()) in
  let coalesced = List.init 32 (fun l -> ev ~wi:l ~addr:(0x2000 + (4 * l)) ()) in
  let b = gpu_mem_cycles P.fermi broadcast ~wg_size:32 in
  let c = gpu_mem_cycles P.fermi coalesced ~wg_size:32 in
  Alcotest.(check bool) "broadcast costs no more than coalesced" true (b <= c)

let spm_cycles plat events ~wg_size =
  let sim = Sim.create plat in
  Sim.consume sim (mk_stats ~wg_size events);
  (Sim.result sim).Sim.r_spm

let test_gpu_bank_conflicts () =
  let local = Grover_ir.Ssa.Local in
  (* Conflict-free: lane l touches bank l. *)
  let free =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x100 + (4 * l)) ~space:local ())
  in
  (* 32-way conflict: every lane touches bank 0 at a different address. *)
  let conflict =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x100 + (128 * l)) ~space:local ())
  in
  let f = spm_cycles P.fermi free ~wg_size:32 in
  let c = spm_cycles P.fermi conflict ~wg_size:32 in
  Alcotest.(check bool)
    (Printf.sprintf "conflict (%.1f) = 32x free (%.1f)" c f)
    true
    (c = 32.0 *. f)

let test_gpu_spm_broadcast () =
  let local = Grover_ir.Ssa.Local in
  (* All lanes read the same local address: broadcast, one bank access. *)
  let bcast = List.init 32 (fun l -> ev ~wi:l ~addr:0x100 ~space:local ()) in
  let free =
    List.init 32 (fun l -> ev ~wi:l ~addr:(0x100 + (4 * l)) ~space:local ())
  in
  Alcotest.(check bool) "broadcast is conflict-free" true
    (spm_cycles P.fermi bcast ~wg_size:32 <= spm_cycles P.fermi free ~wg_size:32)

let test_cpu_simd_coalescing () =
  (* 8 lanes reading consecutive floats = 1 line access per position. *)
  let unit_stride = List.init 8 (fun l -> ev ~wi:l ~addr:(0x1000 + (4 * l)) ()) in
  let big_stride = List.init 8 (fun l -> ev ~wi:l ~addr:(0x1000 + (256 * l)) ()) in
  let cycles events =
    let sim = Sim.create P.snb in
    Sim.consume sim (mk_stats ~wg_size:8 events);
    (Sim.result sim).Sim.r_memory
  in
  Alcotest.(check bool) "strided costs more" true
    (cycles big_stride >= 4.0 *. cycles unit_stride)

(* -- Platform sanity ------------------------------------------------------------ *)

let test_platform_lookup () =
  Alcotest.(check bool) "snb" true (P.by_name "snb" <> None);
  Alcotest.(check bool) "TAHITI" true (P.by_name "TAHITI" <> None);
  Alcotest.(check bool) "bogus" true (P.by_name "bogus" = None);
  Alcotest.(check int) "six platforms" 6 (List.length P.all)

let test_platform_structure () =
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check bool) (p.P.name ^ " cores > 0") true (p.P.cores > 0);
      match (p.P.kind, p.P.mem) with
      | P.Gpu, P.Gpu_mem _ -> ()
      | (P.Cpu | P.Mic), P.Cpu_mem _ -> ()
      | _ -> Alcotest.failf "%s: kind/memory-model mismatch" p.P.name)
    P.all;
  (* The paper's MIC story requires no shared LLC there. *)
  match P.mic.P.mem with
  | P.Cpu_mem m -> Alcotest.(check bool) "MIC has no shared LLC" true (m.P.llc = None)
  | _ -> Alcotest.fail "MIC must be a cache hierarchy"

let test_simulate_rejects_mixed_lines () =
  let snb_l2_128 =
    match P.snb.P.mem with
    | P.Cpu_mem m ->
        { P.snb with
          P.mem =
            P.Cpu_mem
              { m with P.l2 = Option.map (fun c -> { c with Cache.line_bytes = 128 }) m.P.l2 } }
    | P.Gpu_mem _ -> Alcotest.fail "SNB must be a cache hierarchy"
  in
  Alcotest.check_raises "SNB with a 128-byte L2"
    (Invalid_argument
       "Simulate.create: SNB: a 128-byte cache line differs from the hierarchy's 64 bytes")
    (fun () -> ignore (Sim.create snb_l2_128))

(* Group [wg_id] runs on core [wg_id mod cores] (SNB has 8), and its local
   addresses move into that core's window while global ones stay put. *)
let test_simulate_maps_groups_to_cores () =
  let sim = Sim.create P.snb in
  let llc = Option.get sim.Sim.shared and l1 = Option.get sim.Sim.cores.(0).Sim.l1 in
  (* The hits and misses one access of group [wg_id] adds to cache [c]. *)
  let access c ~wg_id ~addr space =
    let before = Cache.stats c in
    Sim.consume sim (mk_stats ~wg_id ~wg_size:1 [ ev ~wi:0 ~addr ~space () ]);
    let after = Cache.stats c in
    (after.Cache.s_hits - before.Cache.s_hits, after.Cache.s_misses - before.Cache.s_misses)
  in
  let local = Grover_ir.Ssa.Local and global = Grover_ir.Ssa.Global in
  let hit = (1, 0) and miss = (0, 1) in
  let check = Alcotest.(check (pair int int)) in
  check "group 0 misses the LLC on a local address" miss (access llc ~wg_id:0 ~addr:0x40 local);
  check "group 1 misses it on the same local address" miss (access llc ~wg_id:1 ~addr:0x40 local);
  check "group 0 misses the LLC on a global address" miss
    (access llc ~wg_id:0 ~addr:0x1000_0000 global);
  check "group 1 hits it on the same global address" hit
    (access llc ~wg_id:1 ~addr:0x1000_0000 global);
  check "group 8, back on core 0, hits its L1 on the local address" hit
    (access l1 ~wg_id:8 ~addr:0x40 local);
  let r = Sim.result sim in
  Alcotest.(check int) "five groups" 5 r.Sim.r_groups;
  Alcotest.(check bool) "cores 0 and 1 charged" true
    (r.Sim.per_core.(0) > 0.0 && r.Sim.per_core.(1) > 0.0);
  (* Critical path = max, not sum. *)
  Alcotest.(check bool) "max over cores" true
    (r.Sim.cycles < r.Sim.per_core.(0) +. r.Sim.per_core.(1))

(* -- Differential: Simulate.consume vs a list-based reference engine --------- *)

(* The distinct keys of [pairs] in first-seen order; a repeated key's flag
   is folded in with [merge]. *)
let first_seen merge pairs =
  List.rev
    (List.fold_left
       (fun acc (k, w) ->
         if List.mem_assoc k acc then
           List.map (fun (k', w') -> if k' = k then (k', merge w' w) else (k', w')) acc
         else (k, w) :: acc)
       [] pairs)

(* The (unit index, is_write) pairs an event touches. *)
let span ~unit (e : Trace.event) =
  let a = e.Trace.addr / unit and b = (e.Trace.addr + e.Trace.bytes - 1) / unit in
  List.init (max 0 (b - a + 1)) (fun i -> (a + i, e.Trace.is_write))

(* Replays [groups] (wg_id, wg_size, events) the way the simulator's cost
   model prescribes, with per-lane lists instead of the lane index.
   Returns (per-core cycles, memory, spm). Groups carry no op counts or
   barriers, so only dispatch and memory costs are charged. *)
let reference_replay (plat : P.t) ~vectorized groups =
  let cores = plat.P.cores in
  let per_core = Array.make cores 0.0 and memory = ref 0.0 and spm = ref 0.0 in
  let hit c addr is_write = Cache.access c ~addr ~bytes:1 ~is_write = 0 in
  (* Group [wg_id]'s events with its local and private addresses moved into
     its core's window, split by lane. *)
  let lanes wg_id wg_size evs =
    let window = wg_id mod cores * Sim.core_window in
    let evs =
      List.map
        (fun (e : Trace.event) ->
          match e.Trace.space with
          | Grover_ir.Ssa.Local | Grover_ir.Ssa.Private -> { e with Trace.addr = e.Trace.addr + window }
          | Grover_ir.Ssa.Global | Grover_ir.Ssa.Constant -> e)
        evs
    in
    Array.init wg_size (fun l -> List.filter (fun (e : Trace.event) -> e.Trace.wi = l) evs)
  in
  (* The k-th event of every lane in [first..last] that has one, by lane. *)
  let step lanes ~first ~last k =
    List.filter_map (fun l -> List.nth_opt lanes.(l) k) (List.init (last - first + 1) (( + ) first))
  in
  let depth lanes ~first ~last =
    List.fold_left max 0 (List.init (last - first + 1) (fun i -> List.length lanes.(first + i)))
  in
  (match plat.P.mem with
  | P.Cpu_mem m ->
      let l1 = Array.init cores (fun _ -> Cache.create m.P.l1) in
      let l2 = Array.init cores (fun _ -> Option.map Cache.create m.P.l2) in
      let llc = Option.map Cache.create m.P.llc in
      let simd = if vectorized then 1 else plat.P.simd in
      let line = m.P.l1.Cache.line_bytes in
      List.iter
        (fun (wg_id, wg_size, evs) ->
          let q = wg_id mod cores and lanes = lanes wg_id wg_size evs in
          let latency addr w =
            if hit l1.(q) addr w then m.P.l1.Cache.latency
            else
              match l2.(q) with
              | Some c when hit c addr w -> c.Cache.cfg.Cache.latency
              | _ -> (
                  match llc with
                  | Some c when hit c addr w -> c.Cache.cfg.Cache.latency
                  | _ -> m.P.mem_latency)
          in
          let mem = ref 0.0 in
          for b = 0 to ((wg_size + simd - 1) / simd) - 1 do
            let first = b * simd and last = min ((b + 1) * simd) wg_size - 1 in
            for k = 0 to depth lanes ~first ~last - 1 do
              List.iter
                (fun (ln, w) -> mem := !mem +. float_of_int (latency (ln * line) w))
                (first_seen ( || ) (List.concat_map (span ~unit:line) (step lanes ~first ~last k)))
            done
          done;
          let mem = !mem *. 0.35 in
          let dispatch =
            float_of_int wg_size *. plat.P.costs.P.c_wi_dispatch /. float_of_int simd
          in
          per_core.(q) <- per_core.(q) +. dispatch +. mem;
          memory := !memory +. mem)
        groups
  | P.Gpu_mem g ->
      let l1 = Array.init cores (fun _ -> Option.map Cache.create g.P.l1g) in
      let l2 = Option.map Cache.create g.P.l2g in
      let warp = plat.P.warp in
      List.iter
        (fun (wg_id, wg_size, evs) ->
          let q = wg_id mod cores and lanes = lanes wg_id wg_size evs in
          let mem = ref 0.0 and sp = ref 0.0 in
          for wp = 0 to ((wg_size + warp - 1) / warp) - 1 do
            let first = wp * warp and last = min ((wp + 1) * warp) wg_size - 1 in
            for k = 0 to depth lanes ~first ~last - 1 do
              let evs = step lanes ~first ~last k in
              let space sp = List.filter (fun (e : Trace.event) -> List.mem e.Trace.space sp) evs in
              let segs =
                first_seen (fun w _ -> w)
                  (List.concat_map (span ~unit:g.P.segment)
                     (space [ Grover_ir.Ssa.Global; Grover_ir.Ssa.Constant ]))
              in
              List.iter
                (fun (seg, w) ->
                  let addr = seg * g.P.segment in
                  match l1.(q) with
                  | Some c when (not w) && hit c addr w ->
                      mem := !mem +. float_of_int c.Cache.cfg.Cache.latency
                  | _ ->
                      let extra =
                        match l2 with
                        | Some c when hit c addr w -> 0.0
                        | _ -> float_of_int g.P.mem_latency
                      in
                      mem := !mem +. g.P.trans_cost +. extra)
                segs;
              let locals =
                first_seen (fun () () -> ())
                  (List.map
                     (fun (e : Trace.event) -> ((e.Trace.addr, e.Trace.is_write), ()))
                     (space [ Grover_ir.Ssa.Local ]))
              in
              if locals <> [] then begin
                let banks = List.map (fun ((a, _), ()) -> a / 4 mod g.P.banks) locals in
                let conflict =
                  List.fold_left
                    (fun acc b -> max acc (List.length (List.filter (( = ) b) banks)))
                    1 banks
                in
                sp := !sp +. (g.P.spm_cost *. float_of_int conflict)
              end
            done
          done;
          per_core.(q) <- per_core.(q) +. !mem +. !sp;
          memory := !memory +. !mem;
          spm := !spm +. !sp)
        groups);
  (per_core, !memory, !spm)

(* Random groups for the properties below. Dense addresses share lines,
   segments and banks; strided ones conflict; 4 KiB-strided ones all fall
   into one L1 set, so the order a step's lines are visited in decides
   which of them stay resident. *)
let gen_event ~wi =
  let open QCheck.Gen in
  let addr =
    oneof
      [ int_range 0 511;
        map (fun i -> 0x4000 + (i * 64 * 37)) (int_range 0 40);
        map (fun i -> 0x80000 + (i * 4096)) (int_range 0 40) ]
  in
  let space = oneofl Grover_ir.Ssa.[ Global; Global; Local; Local; Constant; Private ] in
  map
    (fun ((addr, bytes), (write, space)) -> ev ~wi ~addr ~bytes ~write ~space ())
    (pair (pair addr (oneofl [ 1; 4; 8; 16; 100 ])) (pair bool space))

(* Any order: each event of a random work-item, a few outside the group. *)
let gen_scattered wg_size =
  QCheck.Gen.(
    list_size (int_range 0 80) (int_range 0 (wg_size + 3) >>= fun wi -> gen_event ~wi))

(* Lockstep order, as a group swept in one lane batch per region records
   it: the same number of events per work-item, step-major, so event [e]
   belongs to work-item [e mod wg_size]. *)
let gen_lockstep wg_size =
  QCheck.Gen.(
    int_range 0 4 >>= fun depth ->
    flatten_l (List.init (depth * wg_size) (fun e -> gen_event ~wi:(e mod wg_size))))

(* Near misses of lockstep order: one adjacent pair swapped, one extra
   event, or one event moved to a work-item outside the group. *)
let gen_near_miss wg_size =
  QCheck.Gen.(
    gen_lockstep wg_size >>= fun evs ->
    let a = Array.of_list evs in
    let n = Array.length a in
    let swap i = List.init n (fun j -> a.(if j = i then i + 1 else if j = i + 1 then i else j)) in
    let insert pos x = List.init (n + 1) (fun j -> if j = pos then x else a.(if j < pos then j else j - 1)) in
    let outside i k = List.mapi (fun j e -> if j = i then { e with Trace.wi = wg_size + k } else e) evs in
    oneof
      ((if n >= 2 then [ map swap (int_range 0 (n - 2)) ] else [])
      @ (if n >= 1 then [ map2 outside (int_range 0 (n - 1)) (int_range 0 3) ] else [])
      @ [ map2 insert (int_range 0 n) (int_range 0 (wg_size - 1) >>= fun wi -> gen_event ~wi) ]))

(* Work-group ids wrap around every platform's cores (at most 60). *)
let gen_groups events =
  QCheck.Gen.(
    list_size (int_range 1 4)
      ( pair (int_range 0 130) (int_range 1 40) >>= fun (wg_id, wg_size) ->
        map (fun evs -> (wg_id, wg_size, evs)) (events wg_size) ))

let print_groups groups =
  String.concat " | "
    (List.map
       (fun (g, n, evs) ->
         Printf.sprintf "g%d wg%d [%s]" g n
           (String.concat "; "
              (List.map
                 (fun (e : Trace.event) ->
                   Printf.sprintf "wi%d %d+%d%s%s" e.Trace.wi e.Trace.addr e.Trace.bytes
                     (if e.Trace.is_write then "w" else "")
                     (match e.Trace.space with
                     | Grover_ir.Ssa.Global -> "g"
                     | Grover_ir.Ssa.Local -> "l"
                     | Grover_ir.Ssa.Constant -> "c"
                     | Grover_ir.Ssa.Private -> "p"))
                 evs)))
       groups)

let replay plat ~vectorized stats =
  let sim = Sim.create ~vectorized plat in
  List.iter (Sim.consume sim) stats;
  Sim.result sim

(* Each group's events as one-lane records. *)
let event_stats groups =
  List.map (fun (wg_id, wg_size, evs) -> mk_stats ~wg_id ~wg_size evs) groups

(* [stats groups] are the traces [Simulate] replays for the reference's
   [groups]. *)
let consume_matches_reference plat ~vectorized ~stats groups =
  let r = replay plat ~vectorized (stats groups) in
  let per_core, memory, spm = reference_replay plat ~vectorized groups in
  r.Sim.per_core = per_core
  && r.Sim.r_memory = memory
  && r.Sim.r_spm = spm
  && r.Sim.r_groups = List.length groups

let prop_consume_matches_reference =
  let open QCheck in
  let plats = P.all in
  let group_events wg_size =
    Gen.frequency
      [ (3, gen_scattered wg_size); (1, gen_lockstep wg_size); (1, gen_near_miss wg_size) ]
  in
  let gen = Gen.(triple (int_range 0 (List.length plats - 1)) bool (gen_groups group_events)) in
  let print (pi, vectorized, groups) =
    Printf.sprintf "%s vectorized=%b: %s" (List.nth plats pi).P.name vectorized
      (print_groups groups)
  in
  Test.make ~name:"Simulate.consume matches a list-based reference" ~count:300
    (make gen ~print)
    (fun (pi, vectorized, groups) ->
      consume_matches_reference (List.nth plats pi) ~vectorized ~stats:event_stats groups)

(* -- Records: whole-group affine accesses and one-lane accesses -----------------

   A record is one access of work-items [first .. first + lanes - 1]; the
   work-item at local id (lx, ly, lz) accesses [base + cx·lx + cy·ly +
   cz·lz]. A group is (wg_id, local size, records). *)

type trec = {
  first : int;
  lanes : int;
  base : int;
  cx : int;
  cy : int;
  cz : int;
  bytes : int;
  write : bool;
  space : Grover_ir.Ssa.space;
}

let shape_size (x, y, z) = x * y * z

let rstats (wg_id, ((x, y, z) as shape), recs) =
  let s = Trace.fresh_stats ~wg_id ~wg_size:(shape_size shape) in
  Trace.reset s ~wg_id ~lsz:[| x; y; z |];
  List.iter
    (fun r ->
      Trace.record_batch s ~first:r.first ~lanes:r.lanes
        ~info:(Trace.info ~bytes:r.bytes ~space:r.space ~is_write:r.write)
        ~base:r.base ~cx:r.cx ~cy:r.cy ~cz:r.cz)
    recs;
  s

(* A record's events by ascending work-item, computed here rather than by
   [Trace]. *)
let expand (lsx, lsy, _) r =
  List.init r.lanes (fun j ->
      let l = r.first + j in
      let lx = l mod lsx and ly = l / lsx mod lsy and lz = l / (lsx * lsy) in
      ev ~wi:l ~addr:(r.base + (r.cx * lx) + (r.cy * ly) + (r.cz * lz)) ~bytes:r.bytes
        ~write:r.write ~space:r.space ())

(* The group as events, in the reference's (wg_id, wg_size, events) form. *)
let as_events (wg_id, shape, recs) = (wg_id, shape_size shape, List.concat_map (expand shape) recs)

(* Local sizes: rows shorter than MIC's 16-wide step (AMD-MM's 8×8), rows
   that do not divide a SIMD batch, one-item and one-column groups. *)
let gen_shape =
  QCheck.Gen.(
    oneof
      [ oneofl [ (8, 8, 1); (16, 1, 1); (4, 4, 2); (3, 5, 2); (1, 7, 1); (32, 2, 1); (1, 1, 1); (5, 1, 3) ];
        triple (int_range 1 6) (int_range 1 4) (int_range 1 3) ])

let gen_access =
  QCheck.Gen.(
    triple (oneofl [ 1; 2; 4; 8; 12; 16 ]) bool
      (oneofl Grover_ir.Ssa.[ Global; Global; Local; Local; Constant; Private ]))

(* A whole-group record. Strides are 0, the width, negative, near and
   above the line size; bases sit anywhere in a line, high enough that
   every address is non-negative. *)
let gen_whole shape =
  QCheck.Gen.(
    gen_access >>= fun (bytes, write, space) ->
    oneofl [ 0; bytes; -bytes; 2 * bytes; 4; 60; 64; 72; 100; 128; -64; -72; 136; 520 ]
    >>= fun cx ->
    let lsx, lsy, _ = shape in
    oneofl [ 0; lsx * cx; 64; 256; 1000; -256; 4096 ] >>= fun cy ->
    oneofl [ 0; lsy * cy; 8192; -4096; 64 ] >>= fun cz ->
    map
      (fun off ->
        { first = 0; lanes = shape_size shape; base = 0x80000 + off; cx; cy; cz; bytes; write; space })
      (oneof [ int_range 0 255; map (fun k -> 0x4000 + (k * 4096)) (int_range 0 8) ]))

(* A one-lane record, now and then of a work-item outside the group. *)
let gen_one_lane ~lane =
  QCheck.Gen.(
    gen_access >>= fun (bytes, write, space) ->
    map
      (fun addr -> { first = lane; lanes = 1; base = addr; cx = 0; cy = 0; cz = 0; bytes; write; space })
      (oneof [ int_range 0 511; map (fun i -> 0x80000 + (i * 36)) (int_range 0 100) ]))

let gen_wholes shape = QCheck.Gen.(list_size (int_range 0 5) (gen_whole shape))

(* A one-lane region (each work-item's accesses in turn, as the fiber
   scheduler records a region), then whole-group records. *)
let gen_mixed shape =
  QCheck.Gen.(
    int_range 1 3 >>= fun d ->
    flatten_l
      (List.concat
         (List.init (shape_size shape) (fun lane -> List.init d (fun _ -> gen_one_lane ~lane))))
    >>= fun prefix -> map (fun ws -> prefix @ ws) (gen_wholes shape))

let gen_scattered_recs shape =
  QCheck.Gen.(
    list_size (int_range 0 30)
      ( int_range 0 (shape_size shape + 2) >>= fun lane ->
        frequency [ (3, gen_one_lane ~lane); (1, gen_whole shape) ] ))

(* Near misses of lockstep: one record split into its one-lane records,
   one extra one-lane record, or one record that misses a lane. *)
let gen_near_miss_recs shape =
  QCheck.Gen.(
    map (fun w -> [ w ]) (gen_whole shape) >>= fun w0 ->
    gen_wholes shape >>= fun ws ->
    let recs = w0 @ ws in
    let n = List.length recs and size = shape_size shape in
    let split i =
      List.concat
        (List.mapi
           (fun j r ->
             if j <> i then [ r ]
             else
               List.map
                 (fun (e : Trace.event) ->
                   { r with first = e.Trace.wi; lanes = 1; base = e.Trace.addr; cx = 0; cy = 0; cz = 0 })
                 (expand shape r))
           recs)
    in
    let insert pos x = List.filteri (fun j _ -> j < pos) recs @ [ x ] @ List.filteri (fun j _ -> j >= pos) recs in
    let short i = List.mapi (fun j r -> if j <> i then r else if size > 1 then { r with lanes = size - 1 } else { r with first = 1 }) recs in
    oneof
      [ map split (int_range 0 (n - 1));
        map2 insert (int_range 0 n) (int_range 0 (size - 1) >>= fun lane -> gen_one_lane ~lane);
        map short (int_range 0 (n - 1)) ])

let gen_rgroups recs =
  QCheck.Gen.(
    list_size (int_range 1 3)
      (triple (int_range 0 130) gen_shape (return ()) >>= fun (wg_id, shape, ()) ->
       map (fun rs -> (wg_id, shape, rs)) (recs shape)))

let print_rgroups groups =
  String.concat " | "
    (List.map
       (fun (g, (x, y, z), recs) ->
         Printf.sprintf "g%d %dx%dx%d [%s]" g x y z
           (String.concat "; "
              (List.map
                 (fun r ->
                   Printf.sprintf "%d+%d @%d (%d,%d,%d) %dB%s%s" r.first r.lanes r.base r.cx r.cy
                     r.cz r.bytes
                     (if r.write then "w" else "")
                     (match r.space with
                     | Grover_ir.Ssa.Global -> "g"
                     | Grover_ir.Ssa.Local -> "l"
                     | Grover_ir.Ssa.Constant -> "c"
                     | Grover_ir.Ssa.Private -> "p"))
                 recs)))
       groups)

let on_every_platform f = List.for_all (fun plat -> List.for_all (f plat) [ false; true ]) P.all

(* The lanes a platform replays in one step: its SIMD width on a CPU (1
   for a vectorized kernel), its warp on a GPU. *)
let batch_width (plat : P.t) ~vectorized =
  match plat.P.mem with
  | P.Cpu_mem _ -> if vectorized then 1 else max 1 plat.P.simd
  | P.Gpu_mem _ -> max 1 plat.P.warp

(* The definition of a lockstep batch: every record that touches one of
   its lanes covers all of them. *)
let lockstep_by_definition ~width (_, shape, recs) =
  let n = shape_size shape in
  Array.init ((n + width - 1) / width) (fun b ->
      let first = b * width and last = min n ((b + 1) * width) - 1 in
      List.for_all
        (fun r ->
          let e = min n (r.first + r.lanes) - 1 in
          r.first > last || e < first || (r.first <= first && e >= last))
        recs)

(* [Simulate.lockstep_batches] gives every group's batches the verdict
   the definition gives them. *)
let verdicts_match_definition plat ~vectorized groups =
  let sim = Sim.create ~vectorized plat in
  List.for_all
    (fun g ->
      Sim.lockstep_batches sim (rstats g)
      = lockstep_by_definition ~width:(batch_width plat ~vectorized) g)
    groups

(* A lockstep batch replays without a lane index, and on a CPU a step
   computes its lines from the record. Whole-group records and their
   near misses must give each batch the verdict the definition gives
   it, and replay like the reference on all six platforms, vectorized
   or not. *)
let prop_lockstep_replay_matches_reference =
  let open QCheck in
  let group_recs shape = Gen.oneof [ gen_wholes shape; gen_near_miss_recs shape ] in
  Test.make ~name:"lockstep groups and near misses match the reference on every platform"
    ~count:100
    (make (gen_rgroups group_recs) ~print:print_rgroups)
    (fun groups ->
      on_every_platform (fun plat vectorized ->
          verdicts_match_definition plat ~vectorized groups
          && consume_matches_reference plat ~vectorized
               ~stats:(fun _ -> List.map rstats groups)
               (List.map as_events groups)))

(* A run record: a whole-group record's access made only by the
   work-items [first .. first + lanes - 1], as a masked arm whose active
   lanes are consecutive records it. Runs start anywhere, or on a lane
   that a SIMD batch or warp may start on, so that some batches lie
   wholly inside them. *)
let gen_run shape =
  QCheck.Gen.(
    let size = shape_size shape in
    gen_whole shape >>= fun r ->
    oneof [ int_range 0 (size - 1); map (fun k -> min (size - 1) (k * 8)) (int_range 0 4) ]
    >>= fun first ->
    map (fun lanes -> { r with first; lanes })
      (oneof [ int_range 1 (size - first); return (size - first) ]))

(* Whole-group, run and one-lane records in any order, as the masked and
   unmasked batches of a region record them. *)
let gen_with_runs shape =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (frequency
         [ (2, gen_whole shape);
           (3, gen_run shape);
           (2, int_range 0 (shape_size shape - 1) >>= fun lane -> gen_one_lane ~lane) ]))

(* Groups mixing the three kinds of record: each batch gets the verdict
   the definition gives it, and each group replays like the reference
   replays its expanded events, on all six platforms, vectorized or
   not. *)
let prop_run_records_match_reference =
  let open QCheck in
  Test.make ~name:"whole-group, run and one-lane records match the reference on every platform"
    ~count:100
    (make (gen_rgroups gen_with_runs) ~print:print_rgroups)
    (fun groups ->
      on_every_platform (fun plat vectorized ->
          verdicts_match_definition plat ~vectorized groups
          && consume_matches_reference plat ~vectorized
               ~stats:(fun _ -> List.map rstats groups)
               (List.map as_events groups)))

(* Each group replays once as records and once as the one-lane records
   of its events; the results must be equal, and [Trace.iter_events]
   must expand the records to those events. *)
let prop_records_replay_like_events =
  let open QCheck in
  let group_recs shape =
    Gen.frequency [ (2, gen_wholes shape); (2, gen_mixed shape); (1, gen_scattered_recs shape) ]
  in
  Test.make ~name:"records replay like their per-lane events on every platform" ~count:60
    (make (gen_rgroups group_recs) ~print:print_rgroups)
    (fun groups ->
      let events = List.map as_events groups in
      List.for_all2 (fun g (_, _, evs) -> Trace.events (rstats g) = evs) groups events
      && on_every_platform (fun plat vectorized ->
             replay plat ~vectorized (List.map rstats groups)
             = replay plat ~vectorized (event_stats events)))

(* -- Golden: the simulator's output pinned bit for bit ------------------------ *)

module H = Grover_suite.Harness

let golden_file = "memsim_golden_scale8.txt"

(* One line per (platform, suite case, version) at scale 8, every result
   field in [%h], so any change in the order lines are visited or sums are
   formed shows up as a diff. Each (case, version) executes once and is
   simulated on every platform. *)
let golden_lines () : string list =
  let per_case =
    List.map (fun case -> H.compare_all case ~platforms:P.all ~scale:8) Grover_suite.Suite.all
  in
  List.concat
    (List.mapi
       (fun i (p : P.t) ->
         List.concat_map
           (fun cmps ->
             let cmp = List.nth cmps i in
             List.map
               (fun (run : H.run) ->
                 let r = run.H.sim in
                 Printf.sprintf
                   "%s %s %s cycles=%h memory=%h compute=%h barrier=%h spm=%h \
                    per_queue=%s"
                   p.P.name cmp.H.case_id (H.version_name run.H.version)
                   r.Sim.cycles r.Sim.r_memory r.Sim.r_compute r.Sim.r_barrier
                   r.Sim.r_spm
                   (String.concat ","
                      (Array.to_list (Array.map (Printf.sprintf "%h") r.Sim.per_core))))
               [ cmp.H.with_lm; cmp.H.without_lm ])
           per_case)
       P.all)

let test_golden () =
  let expected =
    In_channel.with_open_text golden_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let actual = golden_lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "memsim result" e a) expected actual

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suite =
  [ ( "cache",
      [ Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "line spanning" `Quick test_cache_line_spanning;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "set conflict thrash" `Quick test_cache_set_conflict_thrash;
        Alcotest.test_case "writeback" `Quick test_cache_writeback;
        Alcotest.test_case "reset" `Quick test_cache_reset;
        Alcotest.test_case "pages on first touch" `Quick test_cache_pages ]
      @ List.map
          (fun (name, reason, config) ->
            Alcotest.test_case ("rejects " ^ name) `Quick (test_cache_rejects ~reason config))
          rejected_configs );
    qsuite "cache-props" [ prop_cache_miss_bound; prop_cache_matches_reference ];
    ( "gpu-model",
      [ Alcotest.test_case "coalescing" `Quick test_gpu_coalesced_vs_strided;
        Alcotest.test_case "broadcast" `Quick test_gpu_broadcast_single_transaction;
        Alcotest.test_case "bank conflicts" `Quick test_gpu_bank_conflicts;
        Alcotest.test_case "SPM broadcast" `Quick test_gpu_spm_broadcast ] );
    ( "cpu-model",
      [ Alcotest.test_case "SIMD coalescing" `Quick test_cpu_simd_coalescing ] );
    ( "platforms",
      [ Alcotest.test_case "lookup" `Quick test_platform_lookup;
        Alcotest.test_case "structure" `Quick test_platform_structure;
        Alcotest.test_case "one line size per hierarchy" `Quick
          test_simulate_rejects_mixed_lines;
        Alcotest.test_case "core mapping" `Quick test_simulate_maps_groups_to_cores ] );
    qsuite "memsim-props"
      [ prop_consume_matches_reference;
        prop_lockstep_replay_matches_reference;
        prop_run_records_match_reference;
        prop_records_replay_like_events ];
    ( "memsim-golden",
      [ Alcotest.test_case "suite x platforms at scale 8, bit for bit" `Quick
          test_golden ] ) ]
