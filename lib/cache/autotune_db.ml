(** Persistent autotune database.

    Maps (kernel, content hash, platform, launch geometry) to the winner of
    the paper's with_lm / without_lm race — plus the execution path and
    lane width the winner ran with — so "run both, keep the faster" (§V) is
    paid once and later runs can read the decision back. [groverc autotune]
    and [groverc promote] populate it; [groverc report] prints the
    recorded winner per kernel.

    The file format is one tab-separated line per entry, human-greppable
    and merge-friendly; unparseable lines (including those of older format
    versions) are skipped, so the DB degrades to fewer entries, not a
    crash. Every entry carries its provenance ([tuned-by]): ["measured"]
    for wall-clock winners and ["predictor"] for decisions taken
    analytically by {!Grover_memsim.Predict.rank} without executing the
    losing versions. *)

let db_version = "atdb2"

(** Provenance values for {!entry.e_tuned_by}. *)
let tuned_by_measured = "measured"

let tuned_by_predictor = "predictor"

(** The platform tag for timings taken on the host interpreter (the only
    measurement source today; simulated platforms would record their
    [Platform.name]). *)
let host_platform = "host"

type entry = {
  e_kernel : string;
  e_khash : string;  (** {!Compile_cache.kernel_hash} of the kernel *)
  e_platform : string;
  e_global : int * int * int;
  e_local : int * int * int;
  e_version : string;  (** winner: "with_lm", "without_lm" or "promoted" *)
  e_path : string;  (** execution path the winner ran on *)
  e_lane_width : int;  (** lane width of the winner (1 = scalar) *)
  e_np : float;  (** normalized perf t_with / t_without (> 1 = gain) *)
  e_t_with : float;  (** best-of-N seconds, with_lm *)
  e_t_without : float;  (** best-of-N seconds, without_lm *)
  e_tuned_by : string;  (** provenance: {!tuned_by_measured} or {!tuned_by_predictor} *)
}

type t = {
  file : string;
  mutable entries : entry list;  (** newest first *)
  mutex : Mutex.t;
}

(* -- Serialization ---------------------------------------------------------- *)

let dims_to_string (x, y, z) = Printf.sprintf "%d,%d,%d" x y z

let dims_of_string s =
  match String.split_on_char ',' s with
  | [ x; y; z ] -> (int_of_string x, int_of_string y, int_of_string z)
  | _ -> failwith "bad dims"

let entry_to_line (e : entry) : string =
  String.concat "\t"
    [
      db_version;
      e.e_kernel;
      e.e_khash;
      e.e_platform;
      dims_to_string e.e_global;
      dims_to_string e.e_local;
      e.e_version;
      e.e_path;
      string_of_int e.e_lane_width;
      Printf.sprintf "%.6f" e.e_np;
      Printf.sprintf "%.9f" e.e_t_with;
      Printf.sprintf "%.9f" e.e_t_without;
      e.e_tuned_by;
    ]

let entry_of_line (line : string) : entry option =
  match String.split_on_char '\t' line with
  | [ v; kernel; khash; platform; global; local; version; path; lw; np;
      tw; two; tuned_by ]
    when v = db_version -> (
      try
        Some
          {
            e_kernel = kernel;
            e_khash = khash;
            e_platform = platform;
            e_global = dims_of_string global;
            e_local = dims_of_string local;
            e_version = version;
            e_path = path;
            e_lane_width = int_of_string lw;
            e_np = float_of_string np;
            e_t_with = float_of_string tw;
            e_t_without = float_of_string two;
            e_tuned_by = tuned_by;
          }
      with _ -> None)
  | _ -> None

(* -- Load / save ------------------------------------------------------------ *)

(** The DB file inside a cache directory (shared with the compile cache's
    artifacts). *)
let default_file ~(cache_dir : string) : string =
  Filename.concat cache_dir "autotune.db"

let load (file : string) : t =
  let entries =
    if not (Sys.file_exists file) then []
    else begin
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> (
                match entry_of_line line with
                | Some e -> go (e :: acc)
                | None -> go acc)
            | exception End_of_file -> acc
          in
          go [])
    end
  in
  { file; entries; mutex = Mutex.create () }

let save (t : t) : unit =
  Mutex.protect t.mutex (fun () ->
      let dir = Filename.dirname t.file in
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let tmp = Printf.sprintf "%s.tmp.%d" t.file (Unix.getpid ()) in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iter
            (fun e ->
              output_string oc (entry_to_line e);
              output_char oc '\n')
            (List.rev t.entries));
      Sys.rename tmp t.file)

let entries (t : t) : entry list =
  Mutex.protect t.mutex (fun () -> List.rev t.entries)

let size (t : t) : int =
  Mutex.protect t.mutex (fun () -> List.length t.entries)

(** (measured, predictor-sourced) entry counts, for [groverc cache stats]. *)
let provenance_counts (t : t) : int * int =
  Mutex.protect t.mutex (fun () ->
      List.fold_left
        (fun (m, p) e ->
          if e.e_tuned_by = tuned_by_predictor then (m, p + 1) else (m + 1, p))
        (0, 0) t.entries)

(* -- Record ----------------------------------------------------------------- *)

let same_site (a : entry) ~kernel ~platform ~global ~local : bool =
  a.e_kernel = kernel && a.e_platform = platform && a.e_global = global
  && a.e_local = local

(** Insert or replace the entry for this (kernel, platform, geometry)
    site. In memory only; call {!save} to persist. *)
let record (t : t) (e : entry) : unit =
  Mutex.protect t.mutex (fun () ->
      t.entries <-
        e
        :: List.filter
             (fun o ->
               not
                 (same_site o ~kernel:e.e_kernel ~platform:e.e_platform
                    ~global:e.e_global ~local:e.e_local))
             t.entries)
