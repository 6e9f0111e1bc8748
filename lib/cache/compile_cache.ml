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
       selection), and a code-version stamp bumped whenever the compiler
       itself changes meaning;}
    {- {b artifact}: the post-pipeline (and, for without_lm, post-Grover)
       IR plus the transformation outcome, in {e canonically renumbered}
       form ({!Grover_ir.Ssa.renumber_func}) so two compiles of the same
       input are bit-identical and the artifact can live on disk
       ([<dir>/<key>.art], written in place under its own lock, behind a
       header checked before anything is unmarshalled);}
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
let code_version = "grover-cache-5"

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
}

let request ?(defines = []) ?(pipeline = [ Pipeline.normalize_pass ])
    ?(variant = With_lm) source =
  {
    rq_source = source;
    rq_defines = defines;
    rq_pipeline = pipeline;
    rq_variant = variant;
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

(** A request's key: the hash of its key material, which is the code
    version, the canonical source, the defines, the pipeline and the
    variant. *)
let key_of_request (rq : request) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            code_version;
            canonical_source ~defines:rq.rq_defines rq.rq_source;
            defines_spec rq.rq_defines;
            Pass.pipeline_spec rq.rq_pipeline;
            variant_spec rq.rq_variant;
          ]))

(** Content hash identifying one kernel for the autotune database: the
    canonical source (under its defines) and the kernel name. The
    pipeline is deliberately {e not} part of it — a tuning entry answers
    "which version wins for this kernel", which survives recompilation
    with a different pipeline. *)
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
  { art_key = key; art_kernels = kernels }

let prepare_artifact (art : artifact) : (string * Interp.compiled) list =
  List.map (fun ka -> (ka.ka_name, Interp.prepare ka.ka_fn)) art.art_kernels

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

(* An artifact file is one header line, then the marshalled artifact. The
   header names the format, the code version, the key, and the payload's
   length and MD5, so a stale, foreign, truncated or bit-flipped file is
   told apart by a string compare before [Marshal] reads a byte of it. *)
let header ~(key : string) (payload : string) : string =
  Printf.sprintf "grover-art %s %s %d %s\n" code_version key
    (String.length payload)
    (Digest.to_hex (Digest.string payload))

(* -- Cross-process locking --

   The disk tier is shared between processes (groverc runs, CI jobs, the
   bench), and each artifact file is its own lock. A lookup reads
   [<key>.art] with no lock. Only when its header does not check does the
   builder open it (creating it empty), lock the whole file and re-read
   it, since another process may have finished it meanwhile; if it still
   does not check, the builder builds and writes it in place. So processes
   missing on one key at once build it once, and a reader that meets a
   file being written (or one a crash left) counts no hit, blocks on the
   lock and re-reads (or rebuilds in place). POSIX record locks belong to
   the process: within one, {!compile_batch}'s owner table serializes the
   builders of a key. Two processes whose domains each hold a key and wait
   for the other's look like a wait-for cycle to the kernel, which fails
   one [F_LOCK] with [EDEADLK]; no domain waits while it holds a key, so
   the lock is retried. Any other locking error (no lock support) builds
   unlocked: a duplicate build at worst. *)

(* Right after [openfile] the offset is 0, so this locks the whole file. *)
let rec lock_whole (fd : Unix.file_descr) : unit =
  match Unix.lockf fd Unix.F_LOCK 0 with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EDEADLK | Unix.EINTR), _, _) ->
      Unix.sleepf 0.001;
      lock_whole fd
  | exception Unix.Unix_error _ -> ()

(* [f] with [key]'s artifact file (its path and a descriptor) open
   read-write and locked, [None] without a disk tier. Closing the file
   releases the lock: an [F_ULOCK] after a read or write would unlock only
   from the moved offset on. If [f] raises while the file is still empty
   (a failed build), the file is removed. *)
let with_locked_art (t : t) (key : string)
    (f : (string * Unix.file_descr) option -> 'a) : 'a =
  match t.dir with
  | None -> f None
  | Some dir ->
      let path = art_path dir key in
      let fd =
        try
          Unix.openfile path [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644
        with Unix.Unix_error (e, _, _) ->
          cache_fail "cannot open cache artifact %s: %s" path
            (Unix.error_message e)
      in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          lock_whole fd;
          try f (Some (path, fd))
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            (try if (Unix.fstat fd).Unix.st_size = 0 then Sys.remove path
             with Unix.Unix_error _ | Sys_error _ -> ());
            Printexc.raise_with_backtrace e bt)

(* The whole file behind [fd], read from offset 0. *)
let read_fd (fd : Unix.file_descr) : string =
  let b = Bytes.create (Unix.fstat fd).Unix.st_size in
  let rec go off =
    let k = if off = Bytes.length b then 0 else Unix.read fd b off (Bytes.length b - off) in
    if k = 0 then Bytes.sub_string b 0 off else go (off + k)
  in
  go 0

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
    Removing an artifact another process is building costs at most one
    duplicate build: a third process creates a fresh file and locks that. *)
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

(* Write [art] over the locked file [fd]: truncated first, so no byte of
   an older, longer file survives past the new payload. *)
let disk_store (t : t) (fd : Unix.file_descr) (art : artifact) : unit =
  let payload = Marshal.to_string art [] in
  Unix.ftruncate fd 0;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
  let h = header ~key:art.art_key payload in
  ignore (Unix.write_substring fd h 0 (String.length h) : int);
  ignore (Unix.write_substring fd payload 0 (String.length payload) : int);
  Mutex.protect t.mutex (fun () ->
      t.stats.st_disk_writes <- t.stats.st_disk_writes + 1);
  (* Keep the tier inside its size budget; the just-written artifact is
     the newest, so it goes last (and only if it alone exceeds it). *)
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

(* The artifact in [path]'s contents [s] if its header matches its own
   payload, [key] and this code version. A hit reserves ids past the
   artifact's and touches the file for LRU: {!trim} evicts by mtime, so a
   hit must refresh it or hot artifacts age out by creation date. *)
let load_checked ~(key : string) (path : string) (s : string) :
    artifact option =
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      if not (String.equal (String.sub s 0 (i + 1)) (header ~key payload))
      then None
      else begin
        let art : artifact = Marshal.from_string payload 0 in
        Ssa.reserve_ids (max_ids art);
        let now = Unix.gettimeofday () in
        (try Unix.utimes path now now with Unix.Unix_error _ -> ());
        Some art
      end

(* A missing, unreadable or unchecked file is a miss, not an error: the
   entry is rebuilt and overwritten. *)
let disk_load (t : t) (key : string) : artifact option =
  match t.dir with
  | None -> None
  | Some dir -> (
      let path = art_path dir key in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> None
      | s -> load_checked ~key path s)

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
      let serve art ~disk =
        let pr = { pr_art = art; pr_compiled = prepare_artifact art } in
        count_miss t ~disk;
        mem_insert t key pr;
        pr
      in
      match disk_load t key with
      | Some art -> serve art ~disk:true
      | None ->
          let art, disk =
            with_locked_art t key (fun locked ->
                match
                  Option.bind locked (fun (path, fd) ->
                      load_checked ~key path (read_fd fd))
                with
                | Some art -> (art, true)
                | None ->
                    let art = build_artifact rq ~key in
                    Option.iter (fun (_, fd) -> disk_store t fd art) locked;
                    (art, false))
          in
          serve art ~disk)

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
  match t.dir with None -> 0 | Some dir -> List.length (art_files dir)

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
