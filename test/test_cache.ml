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

(* A caller's instrumented context changes no artifact byte: two kernels
   built under one shared context (verifying after every pass) marshal
   exactly as without it, each keeping only its own Grover remarks, and
   the context holds all of them, in order. *)
let check_shared_ctx () =
  let src =
    base_source
    ^ {|
__kernel void k2(__global float *out, __global const float *a) {
  __local float buf[16];
  int l = get_local_id(0);
  int g = get_global_id(0);
  buf[l] = a[g];
  barrier(CLK_LOCAL_MEM_FENCE);
  out[g] = buf[l];
}|}
  in
  let rq = Cache.request ~variant:(Cache.Without_lm None) src in
  let c = Pass.ctx ~verify_each:true () in
  let shared = Cache.build_artifact ~ctx:c rq in
  let fresh = Cache.build_artifact rq in
  Alcotest.(check int) "two kernels" 2 (List.length shared.Cache.art_kernels);
  Alcotest.(check bool) "kernels byte-identical" true
    (String.equal
       (Marshal.to_string shared.Cache.art_kernels [])
       (Marshal.to_string fresh.Cache.art_kernels []));
  List.iter
    (fun (ka : Cache.kernel_art) ->
      if ka.Cache.ka_diags = [] then
        Alcotest.failf "%s: no remark of its own" ka.Cache.ka_name)
    shared.Cache.art_kernels;
  Alcotest.(check (list string)) "the context holds every kernel's, in order"
    (List.map Grover_support.Diag.to_string
       (List.concat_map (fun ka -> ka.Cache.ka_diags) shared.Cache.art_kernels))
    (List.map Grover_support.Diag.to_string (Pass.diags c));
  Alcotest.(check bool) "the passes ran under the context" true
    (Pass.stats c <> [])

(* The bytes of what a compile produces: the MD5 of the marshalled kernels
   of every suite request (with_lm, and without_lm of the case's buffers)
   and every example kernel (with_lm, and without_lm of all its buffers),
   pinned before CSE keys became structural and Grover's second cleanup
   went. A change to the passes that is meant to be speed-only must leave
   them byte-identical; re-pin only for a deliberate change of output. *)
let pinned_suite_artifacts =
  [ ("AMD-SS", "with_lm", "e37c0f70fb6b1a15987cef9582724483");
    ("AMD-SS", "without_lm", "426faa961e9265959fda656bb9f8496b");
    ("AMD-MT", "with_lm", "06d5bc0a14f2a8df2b5096d2db24d187");
    ("AMD-MT", "without_lm", "99d324902cce95d2cfa7025c3de44de8");
    ("NVD-MT", "with_lm", "36000d7c8d95ecaaa085e86b0e384205");
    ("NVD-MT", "without_lm", "7118628def1604ce3ebc2659a7f73138");
    ("AMD-RG", "with_lm", "21ce70140e937ad8f2d13a01efedf6b0");
    ("AMD-RG", "without_lm", "ad0212d1eed0225f403e4ee40c58b379");
    ("AMD-MM", "with_lm", "f13ca94a1b9dfa9a8a3c223862f3a69d");
    ("AMD-MM", "without_lm", "02f7273ed6e9de32d2a54abb79e3f0ce");
    ("NVD-MM-A", "with_lm", "0d62c92a27fcf4fbdcc5f4660e1c5e41");
    ("NVD-MM-A", "without_lm", "47638354e222b7fdeef9b9e8ee98ed95");
    ("NVD-MM-B", "with_lm", "0d62c92a27fcf4fbdcc5f4660e1c5e41");
    ("NVD-MM-B", "without_lm", "89451e39843838101284c7d039054615");
    ("NVD-MM-AB", "with_lm", "0d62c92a27fcf4fbdcc5f4660e1c5e41");
    ("NVD-MM-AB", "without_lm", "0dd7d77bcec23fd11485b95e34a4ee15");
    ("NVD-NBody", "with_lm", "c641739ddc7ce334bb52427059811abc");
    ("NVD-NBody", "without_lm", "45142fea6beb9670628d155f783f4217");
    ("PAB-ST", "with_lm", "c31c85a5627fabf1eb48438594512166");
    ("PAB-ST", "without_lm", "2192b61579274ddef1f5598fa2b1662f");
    ("ROD-SC", "with_lm", "33eab5b955c1aa0d3a2613f0543f504f");
    ("ROD-SC", "without_lm", "32c44468e6e35b49ea60bf26070cb479");
    ("TNG-GEMM4", "with_lm", "4289c4874a5e6c84d604de393c40f216");
    ("TNG-GEMM4", "without_lm", "0c3029c73c626882471941fc6e0b69a6") ]

let pinned_example_artifacts =
  [ ("bad_divergent_barrier.cl", "with_lm", "6c3b43591c0aea3c7a990a9d77a36111");
    ("bad_divergent_barrier.cl", "without_lm", "e9aa743c9ead9c27c47621e62d4c5ac9");
    ("bad_oob_index.cl", "with_lm", "30eb643d65759133f03f310381d84e98");
    ("bad_oob_index.cl", "without_lm", "7785c9ba1944755eeaa6f05120524f10");
    ("bad_racy_store.cl", "with_lm", "d40dc192c05ffb8917e9ae9c15144c10");
    ("bad_racy_store.cl", "without_lm", "8e7c577ce3d30e9518414063475ceddc");
    ("divergent_loop.cl", "with_lm", "1bc5da55109ba0c81564343f8c1f32d9");
    ("divergent_loop.cl", "without_lm", "500ae31152102caac3d1fa4db6180db5");
    ("divergent_store.cl", "with_lm", "7a7fbf29b57fef94d981073da354d17b");
    ("divergent_store.cl", "without_lm", "715e09cfb8b303a1fb3ab9fa906c8f5d");
    ("gemm_float4.cl", "with_lm", "4289c4874a5e6c84d604de393c40f216");
    ("gemm_float4.cl", "without_lm", "0c3029c73c626882471941fc6e0b69a6");
    ("guarded_matmul.cl", "with_lm", "0d62c92a27fcf4fbdcc5f4660e1c5e41");
    ("guarded_matmul.cl", "without_lm", "d35d17eca9fd9afff929e5af77252fd6");
    ("private_array.cl", "with_lm", "34d661d5845e9d5e13df415ab437fab0");
    ("private_array.cl", "without_lm", "98813b7a5b8ee120a3019327901dcaa3");
    ("saxpy.cl", "with_lm", "7285a0b0b3fc540d706320ed5dacfa1c");
    ("saxpy.cl", "without_lm", "3aba22d3efe9bca57373755cf8acb65e");
    ("tiled_matmul.cl", "with_lm", "9a629880c1a1d30f178426f4e2987cc8");
    ("tiled_matmul.cl", "without_lm", "392cdee18bdb433cdc6f0a016a0e1792");
    ("transpose_tile.cl", "with_lm", "67ce9127d6cff5a9b34d6fd744feebd8");
    ("transpose_tile.cl", "without_lm", "c091d8d18369f71cb721dfc022f78db1");
    ("uniform_branch_barrier.cl", "with_lm", "1059dcbb5acaf7757572cd0a1b83f8a9");
    ("uniform_branch_barrier.cl", "without_lm", "a7ecacd1d825a7664ef26b470a0aac66") ]

let examples_dir = "../examples/kernels"

let example_sources () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cl")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat examples_dir f) In_channel.input_all))

let check_artifact_pins () =
  let cache = Cache.create () in
  let md5 ?defines variant src =
    let pr = Cache.compile cache (Cache.request ?defines ~variant src) in
    Digest.to_hex (Digest.string (Marshal.to_string pr.Cache.pr_art.Cache.art_kernels []))
  in
  let rows name variants src ?defines () =
    List.map (fun (vn, v) -> (name, vn, md5 ?defines v src)) variants
  in
  let suite =
    List.concat_map
      (fun (c : Kit.case) ->
        rows c.Kit.id
          [ ("with_lm", Cache.With_lm); ("without_lm", Cache.Without_lm c.Kit.remove) ]
          c.Kit.source ~defines:c.Kit.defines ())
      Grover_suite.Suite.all
  in
  let examples =
    List.concat_map
      (fun (f, src) ->
        rows f [ ("with_lm", Cache.With_lm); ("without_lm", Cache.Without_lm None) ] src ())
      (example_sources ())
  in
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "suite artifacts" pinned_suite_artifacts suite;
  Alcotest.check t "example artifacts" pinned_example_artifacts examples

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

(* The uncached side, the oracle: lower, normalize and run Grover, with
   no verify and no renumbering. The builder's artifacts must launch
   exactly as this recipe's functions do. *)
let uncached_version (case : Kit.case) (v : H.version) : Ssa.func =
  let fns = Lower.compile ~defines:case.Kit.defines case.Kit.source in
  let fn = List.find (fun f -> f.Ssa.f_name = case.Kit.kernel) fns in
  Pipeline.normalize fn;
  (match v with
  | H.With_lm -> ()
  | H.Without_lm ->
      ignore (Grover_core.Grover.run ?only:case.Kit.remove fn : Grover_core.Grover.outcome));
  fn

let check_cached_matches_uncached (case : Kit.case) (v : H.version) () =
  let fn = uncached_version case v in
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

(* The harness builds what a cache miss builds: for every suite version
   its function prints exactly as the cached artifact's does. *)
let check_harness_builds_cached_ir () =
  let cache = Cache.create () in
  List.iter
    (fun (case : Kit.case) ->
      List.iter
        (fun (v, variant) ->
          let fn, _ = H.compile_version case v in
          let pr =
            Cache.compile cache
              (Cache.request ~defines:case.Kit.defines ~variant case.Kit.source)
          in
          match
            List.find_opt
              (fun ka -> ka.Cache.ka_name = case.Kit.kernel)
              pr.Cache.pr_art.Cache.art_kernels
          with
          | None -> Alcotest.failf "%s: kernel missing from cache value" case.Kit.id
          | Some ka ->
              Alcotest.(check string)
                (Printf.sprintf "%s %s" case.Kit.id (Cache.variant_spec variant))
                (Printer.func_to_string ka.Cache.ka_fn)
                (Printer.func_to_string fn))
        [ (H.With_lm, Cache.With_lm); (H.Without_lm, Cache.Without_lm case.Kit.remove) ])
    Grover_suite.Suite.all

let cached_uncached_cases =
  Alcotest.test_case "harness IR = cached IR (24 versions)" `Quick
    check_harness_builds_cached_ir
  :: List.concat_map
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
let dir_prefix = Printf.sprintf "grover-cache-test-%d-" (Unix.getpid ())

(* A fresh directory name under the temp dir; the directory is not made. *)
let fresh_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ()) (dir_prefix ^ string_of_int !dir_counter)

(* Remove [dir] and the files in it, if it exists. *)
let remove_dir (dir : string) : unit =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* [f] on a fresh directory, removed with what it holds when [f] returns
   or raises. *)
let with_fresh_dir (f : string -> 'a) : 'a =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) (fun () -> f dir)

let check_disk_tier () =
  with_fresh_dir @@ fun dir ->
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
  with_fresh_dir @@ fun dir ->
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
    (Array.to_list (Sys.readdir dir))

(* A directory written by the lock-sidecar layout: a valid artifact with
   a zero-byte [<key>.lock] beside it. The artifact is a disk hit, and
   [clear] removes both files. *)
let check_stale_lock_sidecar () =
  with_fresh_dir @@ fun dir ->
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
    (Array.to_list (Sys.readdir dir))

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
  with_fresh_dir @@ fun dir ->
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
    (Sys.file_exists (art 3) && not (Sys.file_exists (art 4)))

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
  with_fresh_dir @@ fun dir ->
  let cache = Cache.create ~dir ~max_bytes:1 () in
  List.iter (fun i -> ignore (Cache.compile cache (keyed i))) [ 1; 2 ];
  Alcotest.(check int) "budget enforced on store" 0 (Cache.disk_size cache);
  Alcotest.(check bool) "evictions counted" true
    ((Cache.stats cache).Cache.st_evictions >= 2)

(* -- Corrupted artifacts -------------------------------------------------------- *)

(* Every suite case's artifact, in both variants, built once into one
   directory (removed when the property has run): the request, the file
   and its clean bytes. *)
let clean_artifact_dir = fresh_dir ()

let clean_artifacts =
  lazy
    (let dir = clean_artifact_dir in
     let cache = Cache.create ~dir () in
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

(* -- Front-end and pass fuzzing ------------------------------------------------- *)

(* Token mutants of the suite sources and example kernels: one or two
   raw tokens deleted, duplicated or swapped in the text. Each mutant goes
   through [Cache.compile] as both variants; it must compile to verified
   IR or stop with a located front-end error ([Loc.Error], or a
   [Diag.Fatal] with a location), never with any other exception. *)
module Lexer = Grover_clc.Lexer
module Loc = Grover_support.Loc
module Diag = Grover_support.Diag

type mutation = Delete of int | Duplicate of int | Swap of int * int

(* The [(start, stop)] byte span of every raw token of [src]. *)
let token_spans (src : string) : (int * int) array =
  let st = { Lexer.src; pos = 0; line = 1; bol = 0; macros = Hashtbl.create 0 } in
  let rec go acc =
    Lexer.skip_space_and_comments st;
    let start = st.Lexer.pos in
    match Lexer.lex_raw st with
    | Grover_clc.Token.Eof, _ -> Array.of_list (List.rev acc)
    | _ -> go ((start, st.Lexer.pos) :: acc)
  in
  go []

let mutate (src : string) (m : mutation) : string =
  let spans = token_spans src in
  let n = Array.length spans in
  let sub a b = String.sub src a (b - a) in
  let len = String.length src in
  (* Spaces keep moved tokens apart, so a mutant never glues two tokens
     into one ("0" "x1" into "0x1") and always lexes into raw tokens. *)
  match m with
  | Delete k ->
      let a, b = spans.(k mod n) in
      sub 0 a ^ " " ^ sub b len
  | Duplicate k ->
      let a, b = spans.(k mod n) in
      sub 0 b ^ " " ^ sub a len
  | Swap (j, k) ->
      let (a1, b1), (a2, b2) =
        let x = spans.(j mod n) and y = spans.(k mod n) in
        if fst x <= fst y then (x, y) else (y, x)
      in
      if a1 = a2 then src
      else
        String.concat " "
          [ sub 0 a1; sub a2 b2; sub b1 a2; sub a1 b1; sub b2 len ]

let fuzz_sources =
  lazy
    (Array.of_list
       (List.map
          (fun (c : Kit.case) -> (c.Kit.id, c.Kit.defines, c.Kit.source))
          Grover_suite.Suite.all
       @ List.map (fun (f, src) -> (f, [], src)) (example_sources ())))

let gen_mutation =
  QCheck.Gen.(
    let k = int_bound 10_000 in
    frequency
      [ (2, map (fun k -> Delete k) k);
        (1, map (fun k -> Duplicate k) k);
        (2, map2 (fun j k -> Swap (j, k)) k k) ])

let print_mutation = function
  | Delete k -> Printf.sprintf "delete token %d" k
  | Duplicate k -> Printf.sprintf "duplicate token %d" k
  | Swap (j, k) -> Printf.sprintf "swap tokens %d and %d" j k

let prop_mutants_compile_or_fail_located =
  QCheck.Test.make ~name:"token mutants compile or fail with a location" ~count:1000
    (QCheck.make
       ~print:(fun (w, ms) ->
         Printf.sprintf "source %d: %s" w (String.concat ", " (List.map print_mutation ms)))
       QCheck.Gen.(pair (int_bound 1_000) (list_size (int_range 1 2) gen_mutation)))
    (fun (which, ms) ->
      let sources = Lazy.force fuzz_sources in
      let name, defines, src = sources.(which mod Array.length sources) in
      let mutant = List.fold_left mutate src ms in
      let cache = Cache.create () in
      List.for_all
        (fun variant ->
          match Cache.compile cache (Cache.request ~defines ~variant mutant) with
          | pr ->
              List.iter (fun ka -> Verify.run ka.Cache.ka_fn) pr.Cache.pr_art.Cache.art_kernels;
              true
          | exception Loc.Error (l, _) when not (Loc.is_dummy l) -> true
          | exception Diag.Fatal { Diag.loc = Some l; _ } when not (Loc.is_dummy l) -> true
          | exception e ->
              QCheck.Test.fail_reportf "%s mutant raised %s:\n%s" name
                (Printexc.to_string e) mutant)
        [ Cache.With_lm; Cache.Without_lm None ])

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
  with_fresh_dir @@ fun dir ->
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
  with_fresh_dir @@ fun dir ->
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

(* Run last: every directory the tests above made is gone. *)
let check_no_dir_left () =
  Alcotest.(check (list string)) "directories of this process under the temp dir" []
    (List.filter
       (String.starts_with ~prefix:dir_prefix)
       (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ()))))

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
      [ Alcotest.test_case "artifacts bit-identical" `Quick check_determinism;
        Alcotest.test_case "a shared context changes no byte" `Quick check_shared_ctx;
        Alcotest.test_case "artifact bytes pinned" `Quick check_artifact_pins ]
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
        QCheck_alcotest.to_alcotest prop_mutants_compile_or_fail_located;
        (let name, speed, run = QCheck_alcotest.to_alcotest prop_corrupt_artifact_rebuilds in
         Alcotest.test_case name speed (fun () ->
             Fun.protect ~finally:(fun () -> remove_dir clean_artifact_dir) run));
      ] );
    ( "cache.autotune",
      [
        Alcotest.test_case "db roundtrip" `Quick check_db_roundtrip;
        Alcotest.test_case "db provenance" `Quick check_db_provenance;
        Alcotest.test_case "env fallbacks" `Quick check_env_fallbacks;
        Alcotest.test_case "no test directory left behind" `Quick check_no_dir_left;
      ] );
  ]
