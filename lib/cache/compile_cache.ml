(** Staged compilation with a content-addressed compile cache.

    The monolithic [Lower.compile -> pipeline -> Grover -> Interp.prepare]
    path becomes three explicit stages with a cache in front of each
    boundary:

    {ol
    {- {b key}: a content hash of everything that can change the result —
       the macro-expanded canonical token stream of the source
       ({!Grover_clc.Lexer.canonical_source}), the [-D] defines, the
       structural pipeline spec ({!Grover_passes.Pass.pipeline_spec}), the
       requested variant (with_lm, or without_lm with its buffer
       selection), the resolved engine and lane width, and a code-version
       stamp bumped whenever the compiler itself changes meaning;}
    {- {b artifact}: the post-pipeline (and, for without_lm, post-Grover)
       IR plus the transformation outcome, in {e canonically renumbered}
       form ({!Grover_ir.Ssa.renumber_func}) so two compiles of the same
       input are bit-identical and the artifact can live on disk
       ([<dir>/<key>.art], written atomically via rename);}
    {- {b prepared}: the {!Grover_ocl.Interp.compiled} closures, which
       cannot be serialized — they live only in the in-memory LRU tier, and
       are re-[prepare]d (cheap relative to the pipeline) on a disk hit.}}

    Batches of distinct kernels compile concurrently over the runtime's
    persistent domain pool ({!compile_batch}); everything on the compile
    path is domain-safe (atomic SSA id counters, domain-local phi-name
    tables, a read-only pass registry).

    Cached functions are {b shared}: callers must treat [ka_fn] /
    [pr_compiled] as read-only and take a private copy
    ([Ssa.renumber_func]) before running further transforms on one. *)

open Grover_ir
module Lexer = Grover_clc.Lexer
module Pass = Grover_passes.Pass
module Pipeline = Grover_passes.Pipeline
module Grover = Grover_core.Grover
module Interp = Grover_ocl.Interp
module Runtime = Grover_ocl.Runtime

(* Bump whenever a change to the front-end, the passes, Grover or the IR
   could make an old artifact stale: every on-disk entry keyed under a
   different stamp is simply never hit again. *)
let code_version = "grover-cache-2"

(* -- Requests and keys ----------------------------------------------------- *)

type variant =
  | With_lm
  | Without_lm of string list option
      (** local buffers to disable, [None] = all (Grover's default) *)

type request = {
  rq_source : string;
  rq_defines : (string * string) list;
  rq_pipeline : Pass.t list;  (** pre-transform pipeline *)
  rq_variant : variant;
  rq_engine : Interp.engine option;  (** [None] = process default *)
  rq_lane_width : int option;  (** [None] = per-kernel auto width *)
}

let request ?(defines = []) ?(pipeline = [ Pipeline.normalize_pass ])
    ?(variant = With_lm) ?engine ?lane_width source =
  {
    rq_source = source;
    rq_defines = defines;
    rq_pipeline = pipeline;
    rq_variant = variant;
    rq_engine = engine;
    rq_lane_width = lane_width;
  }

let variant_spec = function
  | With_lm -> "with_lm"
  | Without_lm None -> "without_lm[*]"
  | Without_lm (Some names) ->
      Printf.sprintf "without_lm[%s]" (String.concat ";" names)

let defines_spec (defines : (string * string) list) : string =
  List.sort compare defines
  |> List.map (fun (k, v) -> k ^ "=" ^ v)
  |> String.concat ","

(* Canonicalizing a source is a full tokenization — by far the dominant
   cost of deriving a key, and cache lookups re-derive keys on every call.
   The same few sources are keyed over and over (every suite request, both
   variants, every warm hit), so canonicalization itself is memoized on
   the raw (source, defines) pair. Bounded and mutex-guarded: key
   derivation happens concurrently inside [compile_batch]. *)
let canon_memo : (string * string, string) Hashtbl.t = Hashtbl.create 64
let canon_mutex = Mutex.create ()
let canon_memo_capacity = 256

let canonical_source ~(defines : (string * string) list) (src : string) :
    string =
  let memo_key = (src, defines_spec defines) in
  match
    Mutex.protect canon_mutex (fun () -> Hashtbl.find_opt canon_memo memo_key)
  with
  | Some c -> c
  | None ->
      let c = Lexer.canonical_source ~defines src in
      Mutex.protect canon_mutex (fun () ->
          if Hashtbl.length canon_memo >= canon_memo_capacity then
            Hashtbl.reset canon_memo;
          Hashtbl.replace canon_memo memo_key c);
      c

(* The engine is resolved *at key time*, so a request for the process
   default and one naming the same engine share an entry. An explicit lane
   width is clamped like [Interp.prepare] clamps it; the auto width (which
   depends on the kernel) keys as "auto" and resolves deterministically per
   function inside [Interp.prepare]. *)
let resolved_engine (rq : request) : Interp.engine =
  match rq.rq_engine with Some e -> e | None -> Interp.default_engine ()

let resolved_lane_width (rq : request) : int option =
  Option.map (fun w -> max 1 (min w 16)) rq.rq_lane_width

(** The human-readable key material; {!key_of_request} hashes exactly this.
    Exposed so tests and [groverc cache stats] can explain a key. *)
let key_spec (rq : request) : string =
  String.concat "\x00"
    [
      code_version;
      canonical_source ~defines:rq.rq_defines rq.rq_source;
      defines_spec rq.rq_defines;
      Pass.pipeline_spec rq.rq_pipeline;
      variant_spec rq.rq_variant;
      Interp.engine_name (resolved_engine rq);
      (match resolved_lane_width rq with
      | Some w -> string_of_int w
      | None -> "auto");
    ]

let key_of_request (rq : request) : string =
  Digest.to_hex (Digest.string (key_spec rq))

(** Content hash identifying one kernel for the autotune database: the
    canonical source (under its defines) and the kernel name. Pipeline,
    engine and lane width are deliberately {e not} part of it — a tuning
    entry answers "which version wins for this kernel", which survives
    recompilation with different executor settings. *)
let kernel_hash ~(source : string) ~(defines : (string * string) list)
    ~(name : string) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ canonical_source ~defines source; defines_spec defines; name ]))

(* -- Artifacts -------------------------------------------------------------- *)

type kernel_art = {
  ka_name : string;
  ka_fn : Ssa.func;  (** post-pipeline IR, canonically renumbered *)
  ka_outcome : Grover.outcome option;  (** [Some] iff variant is without_lm *)
  ka_before : int;  (** instruction count as lowered, pre-pipeline *)
  ka_after : int;  (** instruction count in [ka_fn] *)
  ka_changed : bool;  (** whether the pipeline changed the function *)
  ka_diags : Grover_support.Diag.t list;
      (** diagnostics the pipeline and transform emitted, in emission
          order — replayed on a cache hit so a cached driver run prints
          what a fresh one would *)
}

type artifact = {
  art_version : string;  (** = [code_version] at build time *)
  art_key : string;
  art_kernels : kernel_art list;
}

(** A cache value ready to launch: the artifact plus the prepared
    per-kernel closures (memory tier only — closures never touch disk). *)
type prepared = {
  pr_art : artifact;
  pr_compiled : (string * Interp.compiled) list;
}

exception Cache_error of string

let cache_fail fmt = Printf.ksprintf (fun m -> raise (Cache_error m)) fmt

(* -- Building (the cache miss path) ----------------------------------------- *)

let build_artifact (rq : request) ~(key : string) : artifact =
  let fns = Lower.compile ~defines:rq.rq_defines rq.rq_source in
  let kernels =
    List.map
      (fun fn ->
        let before = Pass.instr_count fn in
        let c = Pass.ctx () in
        let changed = Pass.run_pipeline c rq.rq_pipeline fn in
        Verify.run fn;
        (* Renumbering before the transform pins every id Grover's report
           strings can observe, so rendered reports (and hence the whole
           artifact) do not depend on where the process-global id counters
           happened to stand. *)
        let fn = Ssa.renumber_func fn in
        let outcome =
          match rq.rq_variant with
          | With_lm -> None
          | Without_lm only -> Some (Grover.run ?only ~ctx:c fn)
        in
        let fn = Ssa.renumber_func fn in
        {
          ka_name = fn.Ssa.f_name;
          ka_fn = fn;
          ka_outcome = outcome;
          ka_before = before;
          ka_after = Pass.instr_count fn;
          ka_changed = changed;
          ka_diags = Pass.diags c;
        })
      fns
  in
  { art_version = code_version; art_key = key; art_kernels = kernels }

let prepare_artifact (rq : request) (art : artifact) :
    (string * Interp.compiled) list =
  let engine = resolved_engine rq in
  let lane_width = resolved_lane_width rq in
  List.map
    (fun ka -> (ka.ka_name, Interp.prepare ~engine ?lane_width ka.ka_fn))
    art.art_kernels

(* -- The cache -------------------------------------------------------------- *)

type stats = {
  mutable st_mem_hits : int;
  mutable st_disk_hits : int;
  mutable st_misses : int;
  mutable st_evictions : int;
  mutable st_disk_writes : int;
}

type slot = { sl_prepared : prepared; mutable sl_used : int }

type t = {
  dir : string option;  (** on-disk tier root; [None] = memory-only *)
  mem_capacity : int;
  max_bytes : int option;
      (** disk-tier size budget; stores trim LRU-by-mtime past it *)
  tbl : (string, slot) Hashtbl.t;
  mutable tick : int;
  mutex : Mutex.t;  (** guards [tbl], [tick] and [stats] *)
  stats : stats;
}

(* The disk budget: an explicit [?max_bytes] wins; otherwise
   [GROVER_CACHE_MAX_BYTES] (plain byte count) applies to every cache the
   process opens. 0 or negative disables the budget. *)
let resolve_max_bytes (arg : int option) : int option =
  match arg with
  | Some n -> if n > 0 then Some n else None
  | None -> (
      match Sys.getenv_opt "GROVER_CACHE_MAX_BYTES" with
      | None | Some "" -> None
      | Some s -> (
          match int_of_string_opt s with
          | Some n when n > 0 -> Some n
          | Some _ -> None
          | None ->
              Grover_support.Diag.warn_env "GROVER_CACHE_MAX_BYTES"
                "ignoring invalid GROVER_CACHE_MAX_BYTES %S (want a byte \
                 count)"
                s;
              None))

let create ?dir ?(mem_capacity = 128) ?max_bytes () : t =
  if mem_capacity < 1 then cache_fail "mem_capacity must be >= 1";
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Unix.mkdir d 0o755
      with Unix.Unix_error (e, _, _) ->
        cache_fail "cannot create cache dir %s: %s" d (Unix.error_message e))
  | Some d when not (Sys.is_directory d) ->
      cache_fail "cache dir %s exists and is not a directory" d
  | _ -> ());
  {
    dir;
    mem_capacity;
    max_bytes = resolve_max_bytes max_bytes;
    tbl = Hashtbl.create 64;
    tick = 0;
    mutex = Mutex.create ();
    stats =
      {
        st_mem_hits = 0;
        st_disk_hits = 0;
        st_misses = 0;
        st_evictions = 0;
        st_disk_writes = 0;
      };
  }

let stats (t : t) : stats = t.stats

let reset_stats (t : t) : unit =
  Mutex.protect t.mutex (fun () ->
      t.stats.st_mem_hits <- 0;
      t.stats.st_disk_hits <- 0;
      t.stats.st_misses <- 0;
      t.stats.st_evictions <- 0;
      t.stats.st_disk_writes <- 0)

let mem_size (t : t) : int =
  Mutex.protect t.mutex (fun () -> Hashtbl.length t.tbl)

(* -- Disk tier -- *)

let art_path (dir : string) (key : string) : string =
  Filename.concat dir (key ^ ".art")

(* -- Cross-process locking --

   The disk tier is shared between processes (several groverc invocations,
   CI jobs, the bench) and every write is already an atomic rename, so
   readers can never observe a torn artifact. What the rename alone does
   not prevent is N processes missing on the same key at once and all
   paying the full build. A per-key advisory lock file ([<key>.lock],
   zero bytes, sibling of the artifact) closes that window: readers take
   it shared around the load, a builder takes it exclusive around
   miss -> re-probe -> build -> store, so late builders block until the
   winner has published and then hit its artifact on the re-probe.

   The lock is an optimization, never a correctness requirement: if the
   lock file cannot be opened or locked (read-only dir, NFS without lock
   support), the code degrades to today's behaviour — duplicate builds,
   still-correct atomic publishes. POSIX record locks are per-process, so
   within one process concurrent builders of the same key are serialized
   by {!compile_batch}'s owner table instead, and a same-process re-entry
   never self-deadlocks. *)

let lock_path (dir : string) (key : string) : string =
  Filename.concat dir (key ^ ".lock")

let with_key_lock (t : t) (key : string) ~(shared : bool) (f : unit -> 'a) :
    'a =
  match t.dir with
  | None -> f ()
  | Some dir -> (
      match
        Unix.openfile (lock_path dir key) [ Unix.O_CREAT; Unix.O_RDWR ] 0o644
      with
      | exception Unix.Unix_error _ -> f ()
      | fd ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.lockf fd Unix.F_ULOCK 0
               with Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (try
                 Unix.lockf fd
                   (if shared then Unix.F_RLOCK else Unix.F_LOCK)
                   0
               with Unix.Unix_error _ -> ());
              f ()))

(* Every artifact file with its mtime and size; unstattable entries (a
   concurrent trim/clear) are skipped. *)
let art_files (dir : string) : (string * float * int) list =
  if not (Sys.file_exists dir) then []
  else
    Array.to_list (Sys.readdir dir)
    |> List.filter_map (fun f ->
           if not (Filename.check_suffix f ".art") then None
           else
             let path = Filename.concat dir f in
             match Unix.stat path with
             | { Unix.st_mtime; st_size; _ } -> Some (path, st_mtime, st_size)
             | exception Unix.Unix_error _ -> None)

(** Bytes held by the on-disk tier. *)
let disk_bytes (t : t) : int =
  match t.dir with
  | None -> 0
  | Some dir -> List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 (art_files dir)

(** Trim the on-disk tier to at most [max_bytes], evicting least-recently
    used artifacts first (mtime order — {!disk_load} touches an artifact
    on every hit, so mtime is recency of use, not of creation). Returns
    [(files_removed, bytes_freed)]. The memory tier is untouched: its
    entries remain valid and simply re-persist on their next store.
    Zero-byte [.lock] sidecars are deliberately kept: unlinking a lock
    file another process holds open would let a third process create a
    fresh one and split the lock. [clear] removes them. *)
let trim (t : t) ~(max_bytes : int) : int * int =
  match t.dir with
  | None -> (0, 0)
  | Some dir ->
      let newest_first =
        List.sort
          (fun (_, m1, _) (_, m2, _) -> compare (m2 : float) m1)
          (art_files dir)
      in
      let kept = ref 0 and removed = ref 0 and freed = ref 0 in
      List.iter
        (fun (path, _, sz) ->
          if !kept + sz <= max_bytes then kept := !kept + sz
          else
            try
              Sys.remove path;
              removed := !removed + 1;
              freed := !freed + sz;
              Mutex.protect t.mutex (fun () ->
                  t.stats.st_evictions <- t.stats.st_evictions + 1)
            with Sys_error _ -> ())
        newest_first;
      (!removed, !freed)

let disk_store (t : t) (art : artifact) : unit =
  match t.dir with
  | None -> ()
  | Some dir ->
      let final = art_path dir art.art_key in
      let tmp =
        Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
          (Domain.self () :> int)
      in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Marshal.to_channel oc art []);
      (* Atomic publish: a concurrent reader sees the old state or the
         complete new file, never a torn write. *)
      Sys.rename tmp final;
      Mutex.protect t.mutex (fun () ->
          t.stats.st_disk_writes <- t.stats.st_disk_writes + 1);
      (* Keep the tier inside its size budget; the just-written artifact
         is the newest, so it is evicted last (and only if it alone
         exceeds the budget). *)
      match t.max_bytes with
      | Some mb -> ignore (trim t ~max_bytes:mb : int * int)
      | None -> ()

(* Largest id the artifact's functions use; the loader reserves past it so
   instructions created later in this process cannot collide. Functions
   are renumbered dense from 1, so the instruction count is the bound. *)
let max_ids (art : artifact) : int =
  List.fold_left
    (fun acc ka ->
      max acc (max ka.ka_after (List.length ka.ka_fn.Ssa.blocks)))
    0 art.art_kernels

let disk_load (t : t) (key : string) : artifact option =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = art_path dir key in
      if not (Sys.file_exists path) then None
      else
        (* A corrupt, truncated or stale-versioned artifact is a miss, not
           an error: the entry is rebuilt and overwritten. *)
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> (Marshal.from_channel ic : artifact))
        with
        | art when art.art_version = code_version && art.art_key = key ->
            Ssa.reserve_ids (max_ids art);
            (* Touch for LRU: {!trim} evicts by mtime, so a hit must
               refresh it or hot artifacts age out by creation date. *)
            (let now = Unix.gettimeofday () in
             try Unix.utimes path now now with Unix.Unix_error _ -> ());
            Some art
        | _ -> None
        | exception _ -> None)

(* -- Memory (LRU) tier -- *)

(* Callers hold the lock. *)
let evict_if_full (t : t) : unit =
  if Hashtbl.length t.tbl >= t.mem_capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k sl ->
        match !victim with
        | Some (_, used) when used <= sl.sl_used -> ()
        | _ -> victim := Some (k, sl.sl_used))
      t.tbl;
    match !victim with
    | Some (k, _) ->
        Hashtbl.remove t.tbl k;
        t.stats.st_evictions <- t.stats.st_evictions + 1
    | None -> ()
  end

let mem_lookup (t : t) (key : string) : prepared option =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some sl ->
          t.tick <- t.tick + 1;
          sl.sl_used <- t.tick;
          t.stats.st_mem_hits <- t.stats.st_mem_hits + 1;
          Some sl.sl_prepared
      | None -> None)

let mem_insert (t : t) (key : string) (pr : prepared) : unit =
  Mutex.protect t.mutex (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        evict_if_full t;
        t.tick <- t.tick + 1;
        Hashtbl.replace t.tbl key { sl_prepared = pr; sl_used = t.tick }
      end)

let count_miss (t : t) ~(disk : bool) : unit =
  Mutex.protect t.mutex (fun () ->
      if disk then t.stats.st_disk_hits <- t.stats.st_disk_hits + 1
      else t.stats.st_misses <- t.stats.st_misses + 1)

(* -- Lookup ------------------------------------------------------------------ *)

(** Compile [rq] through the cache: memory tier (prepared closures), then
    disk tier (artifact only; re-prepared), then a full build (stored to
    both tiers). *)
let compile (t : t) (rq : request) : prepared =
  let key = key_of_request rq in
  match mem_lookup t key with
  | Some pr -> pr
  | None -> (
      let from_disk art =
        let pr = { pr_art = art; pr_compiled = prepare_artifact rq art } in
        count_miss t ~disk:true;
        mem_insert t key pr;
        pr
      in
      match with_key_lock t key ~shared:true (fun () -> disk_load t key) with
      | Some art -> from_disk art
      | None ->
          (* Miss: take the key's lock exclusively, so concurrent builders
             of the same key in other processes queue up behind the first.
             Whoever waited re-probes and hits the winner's artifact
             instead of rebuilding it. *)
          with_key_lock t key ~shared:false (fun () ->
              match disk_load t key with
              | Some art -> from_disk art
              | None ->
                  let art = build_artifact rq ~key in
                  let pr =
                    { pr_art = art; pr_compiled = prepare_artifact rq art }
                  in
                  count_miss t ~disk:false;
                  disk_store t art;
                  mem_insert t key pr;
                  pr))

(** Compile a batch of requests, distinct cache misses running concurrently
    over the runtime's persistent domain pool. Results are positionally
    aligned with the input; duplicate keys within one batch are compiled
    once. A failed compile re-raises the first failure after the batch
    drains. *)
let compile_batch (t : t) (rqs : request list) : prepared list =
  let rqs = Array.of_list rqs in
  let n = Array.length rqs in
  if n = 0 then []
  else begin
    let keys = Array.map key_of_request rqs in
    (* Memory-tier prefilter: a fully warm batch is pure table lookups and
       never wakes the pool. *)
    let results : prepared option array = Array.map (mem_lookup t) keys in
    (* One owner per distinct missing key: the first position claims the
       compile, later duplicates read its published result. *)
    let owner : (string, int) Hashtbl.t = Hashtbl.create n in
    Array.iteri
      (fun i k ->
        if results.(i) = None && not (Hashtbl.mem owner k) then
          Hashtbl.add owner k i)
      keys;
    let pending =
      Array.of_seq (Seq.map snd (Hashtbl.to_seq owner))
    in
    let errors : exn option array = Array.make n None in
    let next = Atomic.make 0 in
    let work _idx =
      let continue_ = ref true in
      while !continue_ do
        let p = Atomic.fetch_and_add next 1 in
        if p >= Array.length pending then continue_ := false
        else
          let i = pending.(p) in
          match compile t rqs.(i) with
          | pr -> results.(i) <- Some pr
          | exception e -> errors.(i) <- Some e
      done
    in
    let workers =
      max 0
        (min
           (Array.length pending - 1)
           (min (Runtime.max_domains - 1)
              (Domain.recommended_domain_count () - 1)))
    in
    if Array.length pending = 0 then ()
    else if workers = 0 then work 0
    else begin
      Runtime.Pool.dispatch ~workers work;
      let caller_error = (try work 0; None with e -> Some e) in
      let pool_error = Runtime.Pool.wait () in
      match (caller_error, pool_error) with
      | Some e, _ | None, Some e -> raise e
      | None, None -> ()
    end;
    (match Array.find_opt Option.is_some errors with
    | Some (Some e) -> raise e
    | _ -> ());
    Array.to_list
      (Array.mapi
         (fun i k ->
           match results.(i) with
           | Some pr -> pr
           | None -> (
               match Hashtbl.find_opt owner k with
               | Some o when results.(o) <> None -> Option.get results.(o)
               | _ -> (
                   (* Duplicate of a key whose owner compiled it; the
                      memory tier now holds it. *)
                   match mem_lookup t k with
                   | Some pr -> pr
                   | None -> compile t rqs.(i))))
         keys)
  end

(** Find one kernel's compiled form in a cache value. *)
let find_kernel (pr : prepared) ~(name : string) : Interp.compiled option =
  List.assoc_opt name pr.pr_compiled

let find_art (pr : prepared) ~(name : string) : kernel_art option =
  List.find_opt (fun ka -> ka.ka_name = name) pr.pr_art.art_kernels

(* -- Maintenance ------------------------------------------------------------- *)

(** Number of artifacts in the on-disk tier. *)
let disk_size (t : t) : int =
  match t.dir with
  | None -> 0
  | Some dir ->
      if not (Sys.file_exists dir) then 0
      else
        Array.fold_left
          (fun acc f ->
            if Filename.check_suffix f ".art" then acc + 1 else acc)
          0 (Sys.readdir dir)

(** Drop both tiers (the autotune DB, which shares the directory, is kept). *)
let clear (t : t) : unit =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.reset t.tbl;
      t.tick <- 0);
  match t.dir with
  | None -> ()
  | Some dir ->
      if Sys.file_exists dir then
        Array.iter
          (fun f ->
            if Filename.check_suffix f ".art" || Filename.check_suffix f ".lock"
            then
              try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir)

let stats_line (t : t) : string =
  let s = t.stats in
  Printf.sprintf
    "cache: %d mem hit%s, %d disk hit%s, %d miss%s (%d in memory, %d on \
     disk, %d eviction%s)"
    s.st_mem_hits
    (if s.st_mem_hits = 1 then "" else "s")
    s.st_disk_hits
    (if s.st_disk_hits = 1 then "" else "s")
    s.st_misses
    (if s.st_misses = 1 then "" else "es")
    (mem_size t) (disk_size t) s.st_evictions
    (if s.st_evictions = 1 then "" else "s")
