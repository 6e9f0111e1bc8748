(** Tests for the staged compile cache and the persistent autotune DB:
    key invalidation (every input dimension reaches the hash; formatting
    does not), artifact determinism, cached-vs-uncached launch identity
    across the whole suite, the disk/LRU tiers, rejection of corrupted disk
    artifacts, batch compilation, the autotune DB file, and the
    environment-variable fallbacks. *)

open Grover_ir
open Grover_ocl
module Cache = Grover_cache.Compile_cache
module Atdb = Grover_cache.Autotune_db
module Pass = Grover_passes.Pass
module Pipeline = Grover_passes.Pipeline
module H = Grover_suite.Harness
module Kit = Grover_suite.Kit

let base_source =
  {|__kernel void k(__global float *out, __global const float *a, int n) {
      __local float tmp[16];
      int l = get_local_id(0);
      int g = get_global_id(0);
      tmp[l] = a[g] * 2.0f;
      barrier(CLK_LOCAL_MEM_FENCE);
      if (g < n) out[g] = tmp[l] + 1.0f;
    }|}

let key rq = Cache.key_of_request rq

(* -- Cache keys --------------------------------------------------------------- *)

let check_formatting_insensitive () =
  (* Comments and whitespace are erased by the canonical token stream. *)
  let reformatted =
    {|/* a comment */
__kernel void k(__global float *out, __global const float *a, int n)
{
  __local float tmp[ 16 ];
  int l = get_local_id(0); int g = get_global_id(0);   // trailing
  tmp[l] = a[g] * 2.0f;
  barrier(CLK_LOCAL_MEM_FENCE);
  if (g < n)
    out[g] = tmp[l] + 1.0f;
}|}
  in
  Alcotest.(check string)
    "comment/whitespace edits keep the key"
    (key (Cache.request base_source))
    (key (Cache.request reformatted))

let check_each_dimension_invalidates () =
  let base = Cache.request base_source in
  let distinct what rq =
    if key rq = key base then
      Alcotest.failf "%s edit did not change the key" what
  in
  distinct "source"
    (Cache.request
       {|__kernel void k(__global float *out, __global const float *a, int n) {
           out[get_global_id(0)] = a[get_global_id(0)];
         }|});
  distinct "defines" { base with Cache.rq_defines = [ ("W", "8") ] };
  distinct "pipeline spec"
    { base with
      Cache.rq_pipeline = [ Pipeline.normalize_pass; Pipeline.cleanup_pass ] };
  distinct "variant" { base with Cache.rq_variant = Cache.Without_lm None };
  distinct "variant selection"
    { base with Cache.rq_variant = Cache.Without_lm (Some [ "tmp" ]) }

let check_defines_order_insensitive () =
  let a = Cache.request ~defines:[ ("A", "1"); ("B", "2") ] base_source in
  let b = Cache.request ~defines:[ ("B", "2"); ("A", "1") ] base_source in
  Alcotest.(check string) "define order keys equally" (key a) (key b)

let prop_constant_edits =
  QCheck.Test.make ~name:"keys equal iff embedded constant equal" ~count:40
    QCheck.(pair (int_range 0 999) (int_range 0 999))
    (fun (a, b) ->
      let src c =
        Printf.sprintf
          "__kernel void k(__global int *out) { out[get_global_id(0)] = %d; }"
          c
      in
      let ka = key (Cache.request (src a)) in
      let kb = key (Cache.request (src b)) in
      (a = b) = (ka = kb))

(* -- Determinism --------------------------------------------------------------- *)

let check_determinism () =
  List.iter
    (fun (case : Kit.case) ->
      List.iter
        (fun variant ->
          let rq =
            Cache.request ~defines:case.Kit.defines ~variant case.Kit.source
          in
          let k = key rq in
          let bytes () =
            Marshal.to_string (Cache.build_artifact rq ~key:k) []
          in
          if not (String.equal (bytes ()) (bytes ())) then
            Alcotest.failf "%s (%s): artifacts not bit-identical" case.Kit.id
              (Cache.variant_spec variant))
        [ Cache.With_lm; Cache.Without_lm case.Kit.remove ])
    Grover_suite.Suite.all

(* -- Cached vs uncached launches ----------------------------------------------- *)

let snapshot_buffers (mem : Memory.t) :
    (int * Ssa.space * Memory.storage) list =
  mem.Memory.buffers
  |> List.map (fun (b : Memory.buffer) ->
         (b.Memory.bid, b.Memory.space, b.Memory.st))
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let launch (case : Kit.case) (compiled : Interp.compiled) =
  let w = case.Kit.mk ~scale:4 in
  let totals =
    Runtime.launch compiled
      ~cfg:{ Runtime.global = w.Kit.global; local = w.Kit.local; queues = 1 }
      ~args:w.Kit.args ~mem:w.Kit.mem ()
  in
  (totals, snapshot_buffers w.Kit.mem, w.Kit.check ())

let check_cached_matches_uncached (case : Kit.case) (v : H.version) () =
  let fn, _ = H.compile_version case v in
  let u_tot, u_bufs, u_valid = launch case (Interp.prepare fn) in
  (match u_valid with
  | Ok () -> ()
  | Error m -> Alcotest.failf "uncached run invalid: %s" m);
  let cache = Cache.create () in
  let variant =
    match v with
    | H.With_lm -> Cache.With_lm
    | H.Without_lm -> Cache.Without_lm case.Kit.remove
  in
  let rq = Cache.request ~defines:case.Kit.defines ~variant case.Kit.source in
  let run_cached label =
    let pr = Cache.compile cache rq in
    let compiled =
      match Cache.find_kernel pr ~name:case.Kit.kernel with
      | Some c -> c
      | None -> Alcotest.failf "%s: kernel missing from cache value" label
    in
    let tot, bufs, valid = launch case compiled in
    (match valid with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s run invalid: %s" label m);
    (tot, bufs)
  in
  let c_tot, c_bufs = run_cached "cached (miss)" in
  Alcotest.(check bool) "identical totals" true (u_tot = c_tot);
  Alcotest.(check bool) "bit-identical buffers" true (compare u_bufs c_bufs = 0);
  (* A memory-tier hit must replay the exact same launch. *)
  let h_tot, h_bufs = run_cached "cached (mem hit)" in
  Alcotest.(check bool) "hit totals identical" true (c_tot = h_tot);
  Alcotest.(check bool) "hit buffers identical" true (compare c_bufs h_bufs = 0);
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.st_misses;
  Alcotest.(check int) "one mem hit" 1 s.Cache.st_mem_hits

let cached_uncached_cases =
  List.concat_map
    (fun (case : Kit.case) ->
      List.map
        (fun (v, vn) ->
          Alcotest.test_case
            (Printf.sprintf "%s %s" case.Kit.id vn)
            `Quick
            (check_cached_matches_uncached case v))
        [ (H.With_lm, "with-lm"); (H.Without_lm, "grover") ])
    Grover_suite.Suite.all

(* -- Disk tier and LRU --------------------------------------------------------- *)

(* Request [i] of a family with one key per [i]: the same kernel under
   an unused define. *)
let keyed (i : int) : Cache.request =
  Cache.request ~defines:[ ("REQ", string_of_int i) ] base_source

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "grover-cache-test-%d-%d" (Unix.getpid ()) !dir_counter)

let check_disk_tier () =
  let dir = fresh_dir () in
  let rq = Cache.request ~variant:(Cache.Without_lm None) base_source in
  let c1 = Cache.create ~dir () in
  let pr1 = Cache.compile c1 rq in
  Alcotest.(check int) "cold: one miss" 1 (Cache.stats c1).Cache.st_misses;
  Alcotest.(check int) "cold: artifact on disk" 1 (Cache.disk_size c1);
  (* A fresh cache instance over the same directory hits the disk tier
     and re-prepares an identical artifact. *)
  let c2 = Cache.create ~dir () in
  let pr2 = Cache.compile c2 rq in
  let s2 = Cache.stats c2 in
  Alcotest.(check int) "warm: disk hit" 1 s2.Cache.st_disk_hits;
  Alcotest.(check int) "warm: no miss" 0 s2.Cache.st_misses;
  Alcotest.(check bool) "disk artifact bit-identical" true
    (String.equal
       (Marshal.to_string pr1.Cache.pr_art [])
       (Marshal.to_string pr2.Cache.pr_art []));
  (* Corruption degrades to a rebuild, never an error. *)
  let k = Cache.key_of_request rq in
  let oc = open_out (Filename.concat dir (k ^ ".art")) in
  output_string oc "not an artifact";
  close_out oc;
  let c3 = Cache.create ~dir () in
  let _pr3 = Cache.compile c3 rq in
  Alcotest.(check int) "corrupt: rebuilt as a miss" 1
    (Cache.stats c3).Cache.st_misses;
  (* [clear] drops artifacts but keeps the autotune DB alongside them. *)
  let db_file = Atdb.default_file ~cache_dir:dir in
  let oc = open_out db_file in
  close_out oc;
  Cache.clear c3;
  Alcotest.(check int) "cleared disk tier" 0 (Cache.disk_size c3);
  Alcotest.(check bool) "autotune.db survives clear" true
    (Sys.file_exists db_file)

(* A miss creates one file, the artifact itself, which is its own lock:
   no lock sidecar, no temporary file. A build that fails leaves nothing. *)
let check_cold_miss_one_file () =
  let dir = fresh_dir () in
  let rq = Cache.request ~variant:(Cache.Without_lm None) base_source in
  let c = Cache.create ~dir () in
  ignore (Cache.compile c rq);
  Alcotest.(check (list string)) "only the artifact"
    [ Cache.key_of_request rq ^ ".art" ]
    (Array.to_list (Sys.readdir dir));
  Alcotest.(check int) "one disk write" 1 (Cache.stats c).Cache.st_disk_writes;
  let bad = Cache.request "__kernel void k(__global float *o) { o[0] = @; }" in
  (match Cache.compile c bad with
  | _ -> Alcotest.fail "a source the lexer rejects compiled"
  | exception Grover_support.Loc.Error _ -> ());
  Alcotest.(check (list string)) "a failed build leaves no file"
    [ Cache.key_of_request rq ^ ".art" ]
    (Array.to_list (Sys.readdir dir));
  Cache.clear c;
  Unix.rmdir dir

(* A directory written by the lock-sidecar layout: a valid artifact with
   a zero-byte [<key>.lock] beside it. The artifact is a disk hit, and
   [clear] removes both files. *)
let check_stale_lock_sidecar () =
  let dir = fresh_dir () in
  let rq = Cache.request base_source in
  let k = Cache.key_of_request rq in
  ignore (Cache.compile (Cache.create ~dir ()) rq);
  close_out (open_out (Filename.concat dir (k ^ ".lock")));
  let c = Cache.create ~dir () in
  ignore (Cache.compile c rq);
  let s = Cache.stats c in
  Alcotest.(check (pair int int)) "disk hit, no miss" (1, 0)
    (s.Cache.st_disk_hits, s.Cache.st_misses);
  Cache.clear c;
  Alcotest.(check (list string)) "clear removes the artifact and the lock" []
    (Array.to_list (Sys.readdir dir));
  Unix.rmdir dir

let check_lru_eviction () =
  let cache = Cache.create ~mem_capacity:2 () in
  List.iter (fun i -> ignore (Cache.compile cache (keyed i))) [ 1; 2; 3 ];
  let s = Cache.stats cache in
  Alcotest.(check int) "three misses" 3 s.Cache.st_misses;
  Alcotest.(check bool) "evicted at capacity" true (s.Cache.st_evictions >= 1);
  Alcotest.(check bool) "memory tier bounded" true (Cache.mem_size cache <= 2);
  (* The LRU victim was the least-recently-used entry: request 1. *)
  ignore (Cache.compile cache (keyed 1));
  Alcotest.(check int) "evictee misses again" 4 (Cache.stats cache).Cache.st_misses

let check_disk_trim () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let art i = Filename.concat dir (Cache.key_of_request (keyed i) ^ ".art") in
  let size w = (Unix.stat (art w)).Unix.st_size in
  List.iter (fun i -> ignore (Cache.compile cache (keyed i))) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "four artifacts" 4 (Cache.disk_size cache);
  Alcotest.(check bool) "disk_bytes sums them" true
    (Cache.disk_bytes cache >= size 1 + size 2 + size 3 + size 4);
  (* Distinct, strictly increasing mtimes: requests 1 and 2 are the LRU
     victims by construction (same-second store times would tie). *)
  List.iteri
    (fun i w ->
      let t = 1000.0 +. float_of_int i in
      Unix.utimes (art w) t t)
    [ 1; 2; 3; 4 ];
  let removed, freed = Cache.trim cache ~max_bytes:(size 3 + size 4) in
  Alcotest.(check int) "evicted the two oldest" 2 removed;
  Alcotest.(check bool) "freed their bytes" true (freed > 0);
  Alcotest.(check bool) "newest survive" true
    (Sys.file_exists (art 3) && Sys.file_exists (art 4));
  Alcotest.(check bool) "oldest gone" true
    (not (Sys.file_exists (art 1)) && not (Sys.file_exists (art 2)));
  (* A disk-tier hit refreshes the artifact's mtime, so the entry it
     served moves to the back of the eviction order. *)
  Unix.utimes (art 3) 1000.0 1000.0;
  Unix.utimes (art 4) 1001.0 1001.0;
  let c2 = Cache.create ~dir () in
  ignore (Cache.compile c2 (keyed 3));
  Alcotest.(check int) "disk hit" 1 (Cache.stats c2).Cache.st_disk_hits;
  let removed2, _ = Cache.trim c2 ~max_bytes:(size 3) in
  Alcotest.(check int) "one more evicted" 1 removed2;
  Alcotest.(check bool) "touched artifact kept over newer-stored" true
    (Sys.file_exists (art 3) && not (Sys.file_exists (art 4)));
  Cache.clear c2;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let check_max_bytes_budget () =
  let with_env var v f =
    let old = Sys.getenv_opt var in
    Unix.putenv var v;
    Fun.protect
      ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
      f
  in
  (* Resolution: the explicit argument wins over the environment; an
     unparseable or non-positive environment value disables the budget. *)
  with_env "GROVER_CACHE_MAX_BYTES" "123" (fun () ->
      Alcotest.(check bool) "env budget honored" true
        ((Cache.create ()).Cache.max_bytes = Some 123);
      Alcotest.(check bool) "argument wins over env" true
        ((Cache.create ~max_bytes:5 ()).Cache.max_bytes = Some 5));
  with_env "GROVER_CACHE_MAX_BYTES" "abc" (fun () ->
      Alcotest.(check bool) "unparseable env disables budget" true
        ((Cache.create ()).Cache.max_bytes = None));
  with_env "GROVER_CACHE_MAX_BYTES" "0" (fun () ->
      Alcotest.(check bool) "non-positive env disables budget" true
        ((Cache.create ()).Cache.max_bytes = None));
  (* Enforcement: a budget smaller than any artifact keeps the disk tier
     empty — every store trims immediately. *)
  let dir = fresh_dir () in
  let cache = Cache.create ~dir ~max_bytes:1 () in
  List.iter (fun i -> ignore (Cache.compile cache (keyed i))) [ 1; 2 ];
  Alcotest.(check int) "budget enforced on store" 0 (Cache.disk_size cache);
  Alcotest.(check bool) "evictions counted" true
    ((Cache.stats cache).Cache.st_evictions >= 2);
  Cache.clear cache;
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

(* -- Corrupted artifacts -------------------------------------------------------- *)

(* Every suite case's artifact, in both variants, built once into one
   directory (removed at exit): the request, the file and its clean bytes. *)
let clean_artifacts =
  lazy
    (let dir = fresh_dir () in
     let cache = Cache.create ~dir () in
     at_exit (fun () ->
         Cache.clear cache;
         try Unix.rmdir dir with Unix.Unix_error _ -> ());
     Array.of_list
       (List.concat_map
          (fun (case : Kit.case) ->
            List.map
              (fun variant ->
                let rq =
                  Cache.request ~defines:case.Kit.defines ~variant
                    case.Kit.source
                in
                ignore (Cache.compile cache rq);
                let file =
                  Filename.concat dir (Cache.key_of_request rq ^ ".art")
                in
                (rq, dir, file, In_channel.with_open_bin file In_channel.input_all))
              [ Cache.With_lm; Cache.Without_lm case.Kit.remove ])
          Grover_suite.Suite.all))

(* Damage an artifact: flip bytes at distinct offsets of its header line
   or of its payload, truncate it, or append bytes to it. The next process
   to open the cache must count a miss (never a disk hit, a crash or an
   exception), rebuild, and store a file byte-identical to the clean one;
   the rewrite in place must truncate what it does not overwrite. *)
type damage = Flip of bool * (int * int) list | Truncate of int | Append of string

let damage_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun h fl -> Flip (h, fl))
          bool
          (list_size (int_range 1 4) (pair (int_bound 1_000_000) (int_range 1 255)));
        map (fun n -> Truncate n) (int_bound 1_000_000);
        map (fun s -> Append s) (string_size ~gen:char (int_range 1 64));
      ])

let damage (clean : string) (d : damage) : string =
  match d with
  | Flip (in_header, flips) ->
      let header_len = String.index clean '\n' + 1 in
      let base, len =
        if in_header then (0, header_len)
        else (header_len, String.length clean - header_len)
      in
      let bytes = Bytes.of_string clean in
      List.iter
        (fun (off, mask) ->
          let i = base + (off mod len) in
          Bytes.set bytes i (Char.chr (Char.code clean.[i] lxor mask)))
        (List.sort_uniq (fun (a, _) (b, _) -> compare (a mod len) (b mod len))
           flips);
      Bytes.to_string bytes
  | Truncate n -> String.sub clean 0 (n mod String.length clean)
  | Append tail -> clean ^ tail

let prop_corrupt_artifact_rebuilds =
  QCheck.Test.make
    ~name:"a corrupted artifact is a miss, rebuilt byte-identical" ~count:60
    (QCheck.make
       ~print:(fun (which, d) ->
         Printf.sprintf "artifact %d, %s" which
           (match d with
           | Flip (h, fl) -> Printf.sprintf "%d flips in the %s" (List.length fl) (if h then "header" else "payload")
           | Truncate n -> Printf.sprintf "truncated at %d mod length" n
           | Append tail -> Printf.sprintf "%d bytes appended" (String.length tail)))
       QCheck.Gen.(pair (int_bound 1_000) damage_gen))
    (fun (which, d) ->
      let arts = Lazy.force clean_artifacts in
      let rq, dir, file, clean = arts.(which mod Array.length arts) in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (damage clean d));
      let c = Cache.create ~dir () in
      ignore (Cache.compile c rq);
      let s = Cache.stats c in
      s.Cache.st_misses = 1 && s.Cache.st_disk_hits = 0
      && String.equal clean
           (In_channel.with_open_bin file In_channel.input_all))

let check_batch () =
  let cache = Cache.create () in
  let rqs =
    List.map
      (fun (case : Kit.case) ->
        Cache.request ~defines:case.Kit.defines
          ~variant:(Cache.Without_lm case.Kit.remove) case.Kit.source)
      Grover_suite.Suite.all
  in
  (* Duplicate the first request so owner-dedup is exercised. *)
  let rqs = rqs @ [ List.hd rqs ] in
  let batched = Cache.compile_batch cache rqs in
  Alcotest.(check int) "positionally aligned" (List.length rqs)
    (List.length batched);
  let seq_cache = Cache.create () in
  let sequential = List.map (Cache.compile seq_cache) rqs in
  List.iteri
    (fun i (b, s) ->
      if
        not
          (String.equal
             (Marshal.to_string b.Cache.pr_art [])
             (Marshal.to_string s.Cache.pr_art []))
      then Alcotest.failf "request %d: batch and sequential artifacts differ" i)
    (List.combine batched sequential);
  let dup_key = Cache.key_of_request (List.hd rqs) in
  let distinct =
    List.sort_uniq compare (List.map Cache.key_of_request rqs)
  in
  ignore dup_key;
  Alcotest.(check int) "duplicates compiled once"
    (List.length distinct)
    (Cache.stats cache).Cache.st_misses

(* -- Autotune DB --------------------------------------------------------------- *)

let entry ?(kernel = "k") ?(khash = "h0") ?(global = (64, 1, 1))
    ?(local = (16, 1, 1)) ?(version = "without_lm") ?(path = "wg-loop")
    ?(lane_width = 8) ?(tuned_by = Atdb.tuned_by_measured) () : Atdb.entry =
  {
    Atdb.e_kernel = kernel;
    e_khash = khash;
    e_platform = Atdb.host_platform;
    e_global = global;
    e_local = local;
    e_version = version;
    e_path = path;
    e_lane_width = lane_width;
    e_np = 1.25;
    e_t_with = 0.005;
    e_t_without = 0.004;
    e_tuned_by = tuned_by;
  }

let find_entry (db : Atdb.t) (kernel : string) : Atdb.entry option =
  List.find_opt (fun e -> e.Atdb.e_kernel = kernel) (Atdb.entries db)

let check_db_roundtrip () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let file = Atdb.default_file ~cache_dir:dir in
  let db = Atdb.load file in
  Alcotest.(check int) "empty db" 0 (Atdb.size db);
  Atdb.record db (entry ());
  Atdb.record db (entry ~kernel:"other" ~path:"fiberless" ());
  (* Same site again: replaces, not appends. *)
  Atdb.record db (entry ~version:"with_lm" ());
  Alcotest.(check int) "same-site record replaces" 2 (Atdb.size db);
  Atdb.save db;
  let db2 = Atdb.load file in
  Alcotest.(check int) "reloaded both entries" 2 (Atdb.size db2);
  (match find_entry db2 "k" with
  | Some e ->
      Alcotest.(check string) "replaced version" "with_lm" e.Atdb.e_version;
      Alcotest.(check string) "path" "wg-loop" e.Atdb.e_path;
      Alcotest.(check int) "lane width" 8 e.Atdb.e_lane_width
  | None -> Alcotest.fail "recorded site lost on reload");
  (* Unparseable lines are skipped, not fatal. *)
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc "garbage line\n";
  close_out oc;
  Alcotest.(check int) "garbage line skipped" 2 (Atdb.size (Atdb.load file))

(* Provenance: predictor-sourced entries survive a save/load round trip,
   the measured/predictor split is reported, and a line of the first
   format version (no provenance column) is skipped like any other
   unparseable line. *)
let check_db_provenance () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let file = Atdb.default_file ~cache_dir:dir in
  let db = Atdb.load file in
  Atdb.record db (entry ());
  Atdb.record db (entry ~kernel:"p1" ~tuned_by:Atdb.tuned_by_predictor ());
  Atdb.record db
    (entry ~kernel:"p2" ~version:"promoted"
       ~tuned_by:Atdb.tuned_by_predictor ());
  let m, p = Atdb.provenance_counts db in
  Alcotest.(check (pair int int)) "measured/predictor split" (1, 2) (m, p);
  Atdb.save db;
  let db2 = Atdb.load file in
  Alcotest.(check (pair int int))
    "split survives reload" (1, 2)
    (Atdb.provenance_counts db2);
  (match find_entry db2 "p2" with
  | Some e ->
      Alcotest.(check string) "predictor provenance kept"
        Atdb.tuned_by_predictor e.Atdb.e_tuned_by;
      Alcotest.(check string) "promoted version kept" "promoted"
        e.Atdb.e_version
  | None -> Alcotest.fail "predictor entry lost on reload");
  (* A first-version line: 12 tab-separated fields, no provenance column. *)
  let v1 =
    String.concat "\t"
      [ Printf.sprintf "atdb%d" 1; "old"; "h1"; Atdb.host_platform;
        "64,1,1"; "16,1,1"; "without_lm"; "wg-loop"; "8"; "1.100000";
        "0.005000000"; "0.004000000" ]
  in
  let oc = open_out_gen [ Open_append ] 0o644 file in
  output_string oc (v1 ^ "\n");
  close_out oc;
  let db3 = Atdb.load file in
  Alcotest.(check int) "first-version line skipped, other entries kept" 3
    (Atdb.size db3);
  Alcotest.(check bool) "first-version entry not loaded" true
    (find_entry db3 "old" = None);
  Alcotest.(check (pair int int))
    "kept entries keep their provenance" (1, 2)
    (Atdb.provenance_counts db3)

(* -- Env diagnostics ----------------------------------------------------------- *)

(* Run [f] with file descriptor 2 redirected to a temporary file; return
   what it wrote there. *)
let capture_stderr (f : unit -> unit) : string =
  let file = Filename.temp_file "grover_stderr" ".txt" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved);
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  s

let check_env_fallbacks () =
  let with_env var v f =
    let old = Sys.getenv_opt var in
    Unix.putenv var v;
    Fun.protect
      ~finally:(fun () -> Unix.putenv var (Option.value old ~default:""))
      f
  in
  (* An invalid cache budget warns once per process, in the GRV-ENV format.
     An earlier test may already have triggered the warning: reset the
     once-per-variable state so this check does not depend on test order. *)
  Hashtbl.remove Grover_support.Diag.env_warned "GROVER_CACHE_MAX_BYTES";
  let err =
    with_env "GROVER_CACHE_MAX_BYTES" "abc" (fun () ->
        capture_stderr (fun () ->
            ignore (Cache.create ());
            ignore (Cache.create ())))
  in
  Alcotest.(check string) "invalid budget warns once"
    "$GROVER_CACHE_MAX_BYTES: warning: ignoring invalid \
     GROVER_CACHE_MAX_BYTES \"abc\" (want a byte count) [GRV-ENV]\n"
    err

let suite =
  [
    ( "cache.keys",
      [
        Alcotest.test_case "formatting-insensitive" `Quick
          check_formatting_insensitive;
        Alcotest.test_case "every dimension invalidates" `Quick
          check_each_dimension_invalidates;
        Alcotest.test_case "define order irrelevant" `Quick
          check_defines_order_insensitive;
        QCheck_alcotest.to_alcotest prop_constant_edits;
      ] );
    ( "cache.determinism",
      [ Alcotest.test_case "artifacts bit-identical" `Quick check_determinism ]
    );
    ("cache.cached-vs-uncached", cached_uncached_cases);
    ( "cache.tiers",
      [
        Alcotest.test_case "disk tier roundtrip" `Quick check_disk_tier;
        Alcotest.test_case "a cold miss creates one file" `Quick
          check_cold_miss_one_file;
        Alcotest.test_case "a stale lock sidecar is ignored and cleared" `Quick
          check_stale_lock_sidecar;
        Alcotest.test_case "lru eviction" `Quick check_lru_eviction;
        Alcotest.test_case "disk trim (lru by mtime)" `Quick check_disk_trim;
        Alcotest.test_case "disk budget (max bytes)" `Quick
          check_max_bytes_budget;
        Alcotest.test_case "batch compile" `Quick check_batch;
        QCheck_alcotest.to_alcotest prop_corrupt_artifact_rebuilds;
      ] );
    ( "cache.autotune",
      [
        Alcotest.test_case "db roundtrip" `Quick check_db_roundtrip;
        Alcotest.test_case "db provenance" `Quick check_db_provenance;
        Alcotest.test_case "env fallbacks" `Quick check_env_fallbacks;
      ] );
  ]
