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
   ways. One way and a hit in the last way are the edge cases of keeping
   each set most-recent first. *)
let diff_configs =
  [ cfg ();
    cfg ~size:(5 * 3 * 32) ~line:32 ~ways:3 ();
    { Cache.size_bytes = 20 * 1024 * 1024; line_bytes = 64; ways = 16; latency = 40 };
    cfg ~size:(8 * 64) ~ways:1 ();
    cfg ~size:(4 * 16 * 32) ~line:32 ~ways:16 () ]

let prop_cache_matches_reference =
  let open QCheck in
  let gen =
    Gen.(
      int_range 0 (List.length diff_configs - 1) >>= fun ci ->
      let c = List.nth diff_configs ci in
      let sets = c.Cache.size_bytes / (c.Cache.line_bytes * c.Cache.ways) in
      (* Few sets and more lines per set than ways, so evictions happen. *)
      let access =
        map
          (fun (s, j, off, bytes, w) ->
            (((s + (sets * j)) * c.Cache.line_bytes) + off, bytes, w))
          (tup5 (int_range 0 2) (int_range 0 (2 * c.Cache.ways)) (int_range 0 (c.Cache.line_bytes - 1))
             (oneofl [ 1; 4; 8; 16; c.Cache.line_bytes + 8 ])
             bool)
      in
      pair (return ci) (list_size (int_range 1 300) access))
  in
  Test.make ~name:"Cache.access matches a reference LRU" ~count:250
    (make gen ~print:(fun (ci, accs) ->
         Printf.sprintf "config %d, %d accesses: %s" ci (List.length accs)
           (String.concat " "
              (List.map (fun (a, b, w) -> Printf.sprintf "%d+%d%s" a b (if w then "w" else "")) accs))))
    (fun (ci, accs) ->
      let c = List.nth diff_configs ci in
      let cache = Cache.create c and r = Ref_lru.create c in
      List.for_all
        (fun (addr, bytes, is_write) ->
          let before = Cache.stats cache in
          let missed = Cache.access cache ~addr ~bytes ~is_write in
          let after = Cache.stats cache in
          let hits = ref 0 and misses = ref 0 and wbs = ref 0 in
          for line = addr / r.Ref_lru.line_bytes to (addr + bytes - 1) / r.Ref_lru.line_bytes do
            let hit, wb = Ref_lru.access_line r line is_write in
            if hit then incr hits else incr misses;
            if wb then incr wbs
          done;
          missed = !misses
          && after.Cache.s_hits - before.Cache.s_hits = !hits
          && after.Cache.s_misses - before.Cache.s_misses = !misses
          && after.Cache.s_writebacks - before.Cache.s_writebacks = !wbs)
        accs)

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

let prop_consume_matches_reference =
  let open QCheck in
  let plats = P.all in
  let space =
    Gen.oneofl Grover_ir.Ssa.[ Global; Global; Local; Local; Constant; Private ]
  in
  (* Dense addresses share lines, segments and banks; strided ones conflict;
     4 KiB-strided ones all fall into one L1 set, so the order a step's
     lines are visited in decides which of them stay resident. *)
  let addr =
    Gen.(
      oneof
        [ int_range 0 511;
          map (fun i -> 0x4000 + (i * 64 * 37)) (int_range 0 40);
          map (fun i -> 0x80000 + (i * 4096)) (int_range 0 40) ])
  in
  let event wg_size =
    Gen.(
      map
        (fun ((wi, addr, bytes), (write, space)) -> ev ~wi ~addr ~bytes ~write ~space ())
        (pair
           (triple (int_range 0 (wg_size + 3)) addr (oneofl [ 1; 4; 8; 16; 100 ]))
           (pair bool space)))
  in
  (* Work-group ids wrap around every platform's cores (at most 60). *)
  let group =
    Gen.(
      pair (int_range 0 130) (int_range 1 40) >>= fun (wg_id, wg_size) ->
      map (fun evs -> (wg_id, wg_size, evs)) (list_size (int_range 0 80) (event wg_size)))
  in
  let gen =
    Gen.(triple (int_range 0 (List.length plats - 1)) bool (list_size (int_range 1 4) group))
  in
  let print (pi, vectorized, groups) =
    Printf.sprintf "%s vectorized=%b: %s" (List.nth plats pi).P.name vectorized
      (String.concat " | "
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
            groups))
  in
  Test.make ~name:"Simulate.consume matches a list-based reference" ~count:300
    (make gen ~print)
    (fun (pi, vectorized, groups) ->
      let plat = List.nth plats pi in
      let sim = Sim.create ~vectorized plat in
      List.iter (fun (wg_id, wg_size, evs) -> Sim.consume sim (mk_stats ~wg_id ~wg_size evs)) groups;
      let r = Sim.result sim in
      let per_core, memory, spm = reference_replay plat ~vectorized groups in
      r.Sim.per_core = per_core
      && r.Sim.r_memory = memory
      && r.Sim.r_spm = spm
      && r.Sim.r_groups = List.length groups)

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
        Alcotest.test_case "reset" `Quick test_cache_reset ]
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
    qsuite "memsim-props" [ prop_consume_matches_reference ];
    ( "memsim-golden",
      [ Alcotest.test_case "suite x platforms at scale 8, bit for bit" `Quick
          test_golden ] ) ]
