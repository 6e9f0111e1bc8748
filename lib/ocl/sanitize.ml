(** Dynamic memory sanitizer: shadow every buffer with last-accessor
    metadata and flag intra-group races and out-of-bounds accesses while a
    kernel runs.

    Each buffer element gets a shadow cell recording the last writer and
    the last reader, each as one stamp [(epoch lsl 32) lor flat_lid]. The
    epoch is a single monotone counter bumped when a work-group starts and
    again after every barrier round, so two accesses carry the same epoch
    iff they were made by the same work-group inside the same barrier
    interval — exactly the window in which the OpenCL memory model gives
    no ordering between distinct work-items. The checks are then local and
    O(1) per access:

    - write after write by another work-item in the same epoch: a
      write/write race;
    - write after read, or read after write, by another work-item in the
      same epoch: a read/write race (on [__local] buffers this is the
      classic missing-barrier bug);
    - index outside [0, n): an out-of-bounds access, reported with the
      source span and aborted (normal mode would crash on the same
      access).

    Private buffers are skipped: they are per-work-item by construction.
    So are the stamps of a buffer the launch never writes ([create
    ~read_only], from {!Runtime.read_only_buids}): such an element takes
    part in no race, so it gets no shadow arrays and only its bounds are
    checked.
    The sanitizer only observes — it never changes what is read or
    written, so sanitized runs are bit-identical to normal runs. One
    finding is kept per (kind, source location, buffer), up to
    {!max_findings}; the interpreter feeds accesses through {!access} only
    when a sanitizer is installed, so normal runs pay one mutable-field
    test per access. A checked access allocates nothing: the shadow is
    found through a small direct-mapped cache, and a finding is built only
    when a check fires. *)

module Loc = Grover_support.Loc

type kind = Write_write | Read_write | Out_of_bounds

let code_of_kind = function
  | Write_write -> "GRV-SAN-WW"
  | Read_write -> "GRV-SAN-RW"
  | Out_of_bounds -> "GRV-SAN-OOB"

type finding = {
  f_kind : kind;
  f_loc : Loc.t;  (** source span of the access that completed the race *)
  f_buffer : string;  (** [Memory.describe] of the buffer *)
  f_space : Grover_ir.Ssa.space;
  f_index : int;  (** element index both work-items touched *)
  f_extent : int;  (** buffer size in elements, for OOB messages *)
  f_group : int;  (** flat work-group id *)
  f_wi1 : int;  (** flat local id of the earlier conflicting work-item *)
  f_wi2 : int;  (** flat local id of the work-item whose access fired *)
}

exception Abort of finding
(** Raised on an out-of-bounds access after recording it: execution cannot
    meaningfully continue past the access. *)

(* Per-element shadow state: the last writer's and the last reader's
   stamp, [(epoch lsl 32) lor flat_lid]. Stamp 0 means "never accessed";
   live epochs start at 2, so it never matches one. *)
type shadow = { writer : int array; reader : int array }

let no_shadow = { writer = [||]; reader = [||] }

module Int_tbl = Hashtbl.Make (Int)

let cache_size = 16

(* Shadows are keyed by [Memory.buid]: a [bid] is unique only within one
   [Memory.t], and a launch's argument buffers need not share the
   [Memory.t] its [__local] buffers are allocated in. A direct-mapped
   cache of [cache_size] slots, indexed by [buid land (cache_size - 1)],
   sits in front of the table. *)
type t = {
  cache_key : int array;  (** buid held by each cache slot, or -1 *)
  cache_shadow : shadow array;
  shadows : shadow Int_tbl.t;  (** every shadow, read on a cache miss *)
  read_only : int list;  (** buids that get [no_shadow] *)
  seen : (string * int * int * string, unit) Hashtbl.t;
      (** (code, line, col, buffer) already reported *)
  mutable findings : finding list;  (** newest first *)
  mutable n_findings : int;
  mutable epoch : int;
  mutable group : int;
}

(** Findings kept per launch; later distinct ones are dropped. *)
let max_findings = 64

(* Stamps hold the epoch above bit 32 of a 63-bit int. *)
let max_epoch = 1 lsl 30
let lid_mask = 0xFFFF_FFFF

let create ?(read_only = []) () : t =
  {
    cache_key = Array.make cache_size (-1);
    cache_shadow = Array.make cache_size no_shadow;
    shadows = Int_tbl.create 8;
    read_only;
    seen = Hashtbl.create 8;
    findings = [];
    n_findings = 0;
    epoch = 1;
    group = 0;
  }

(** Findings in detection order. *)
let findings (t : t) : finding list = List.rev t.findings

let next_epoch (t : t) : unit =
  if t.epoch + 1 >= max_epoch then
    failwith
      (Printf.sprintf
         "sanitizer: more than %d work-group starts and barrier rounds in \
          one launch"
         (max_epoch - 2));
  t.epoch <- t.epoch + 1

(** The runtime is about to run work-group [group]. *)
let enter_group (t : t) ~(group : int) : unit =
  t.group <- group;
  next_epoch t

(** All work-items of the current group reached a barrier and are about to
    resume. *)
let barrier_round (t : t) : unit = next_epoch t

let record (t : t) (f : finding) : unit =
  let key =
    (code_of_kind f.f_kind, f.f_loc.Loc.line, f.f_loc.Loc.col, f.f_buffer)
  in
  if (not (Hashtbl.mem t.seen key)) && t.n_findings < max_findings then begin
    Hashtbl.add t.seen key ();
    t.findings <- f :: t.findings;
    t.n_findings <- t.n_findings + 1
  end

(* The cold path: only a check that fires builds a finding. An
   out-of-bounds one also aborts the launch. *)
let[@inline never] report (t : t) (kind : kind) ~(buf : Memory.buffer)
    ~(idx : int) ~(loc : Loc.t) ~(wi1 : int) ~(wi2 : int) : unit =
  let f =
    {
      f_kind = kind;
      f_loc = loc;
      f_buffer = Memory.describe buf;
      f_space = buf.Memory.space;
      f_index = idx;
      f_extent = buf.Memory.n;
      f_group = t.group;
      f_wi1 = wi1;
      f_wi2 = wi2;
    }
  in
  record t f;
  if kind = Out_of_bounds then raise (Abort f)

let[@inline never] shadow_miss (t : t) (b : Memory.buffer) : shadow =
  let u = b.Memory.buid in
  let s =
    try Int_tbl.find t.shadows u
    with Not_found ->
      let n = b.Memory.n in
      let s =
        if List.mem u t.read_only then no_shadow
        else { writer = Array.make n 0; reader = Array.make n 0 }
      in
      Int_tbl.add t.shadows u s;
      s
  in
  let h = u land (cache_size - 1) in
  t.cache_key.(h) <- u;
  t.cache_shadow.(h) <- s;
  s

let[@inline] shadow_for (t : t) (b : Memory.buffer) : shadow =
  let h = b.Memory.buid land (cache_size - 1) in
  if t.cache_key.(h) = b.Memory.buid then t.cache_shadow.(h)
  else shadow_miss t b

(** Observe one element access. Must run before the actual memory
    operation so that an out-of-bounds index is reported (and aborted)
    instead of crashing the interpreter. *)
let access (t : t) ~(buf : Memory.buffer) ~(idx : int) ~(is_write : bool)
    ~(wi : int) ~(loc : Loc.t) : unit =
  if idx < 0 || idx >= buf.Memory.n then
    report t Out_of_bounds ~buf ~idx ~loc ~wi1:wi ~wi2:wi;
  match buf.Memory.space with
  | Grover_ir.Ssa.Private -> ()
  | _ ->
      let s = shadow_for t buf in
      if s != no_shadow then begin
        let ep = t.epoch in
        let me = (ep lsl 32) lor wi in
        let w = s.writer.(idx) in
        if is_write then begin
          if w <> me && w lsr 32 = ep then
            report t Write_write ~buf ~idx ~loc ~wi1:(w land lid_mask) ~wi2:wi;
          let r = s.reader.(idx) in
          if r <> me && r lsr 32 = ep then
            report t Read_write ~buf ~idx ~loc ~wi1:(r land lid_mask) ~wi2:wi;
          s.writer.(idx) <- me
        end
        else begin
          if w <> me && w lsr 32 = ep then
            report t Read_write ~buf ~idx ~loc ~wi1:(w land lid_mask) ~wi2:wi;
          s.reader.(idx) <- me
        end
      end

(** Words of shadow arrays the sanitizer holds. *)
let shadow_words (t : t) : int =
  Int_tbl.fold (fun _ s acc -> acc + Array.length s.writer + Array.length s.reader) t.shadows 0

(* -- Rendering -------------------------------------------------------------- *)

let message (f : finding) : string =
  let local_hint =
    match f.f_space with
    | Grover_ir.Ssa.Local -> " (unsynchronized local-memory use: missing barrier?)"
    | _ -> ""
  in
  match f.f_kind with
  | Write_write ->
      Printf.sprintf
        "data race: work-items %d and %d of group %d both write element %d \
         of %s within one barrier interval%s"
        f.f_wi1 f.f_wi2 f.f_group f.f_index f.f_buffer local_hint
  | Read_write ->
      Printf.sprintf
        "data race: work-items %d and %d of group %d read and write element \
         %d of %s within one barrier interval%s"
        f.f_wi1 f.f_wi2 f.f_group f.f_index f.f_buffer local_hint
  | Out_of_bounds ->
      Printf.sprintf
        "out-of-bounds access: work-item %d of group %d accesses element %d \
         of %s (valid range [0,%d))"
        f.f_wi2 f.f_group f.f_index f.f_buffer f.f_extent

let to_diag ?file (f : finding) : Grover_support.Diag.t =
  Grover_support.Diag.make ?file
    ?loc:(if Loc.is_dummy f.f_loc then None else Some f.f_loc)
    ~pass:"sanitize" ~code:(code_of_kind f.f_kind) Grover_support.Diag.Error
    (message f)
