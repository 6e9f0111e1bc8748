(** A set-associative, write-allocate, write-back cache with LRU
    replacement. Addresses are byte addresses; the cache tracks lines.

    Each set is a run of [ways] slots, kept most-recently-used first. A
    slot holds [(line lsl 1) lor dirty], or -1 when the way is empty. A
    hit moves its slot to the front of the set; a miss drops the last
    slot (an empty way while the set is not full, otherwise the least
    recently used line) and inserts the new line at the front. Sets live
    in pages of [page_sets] sets, each allocated (all -1) when a line
    first maps into it; until then a page is the shared [[||]], so
    [create] and [reset] cost a table of [sets / page_sets] entries. *)

type config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
  latency : int;  (** cycles on hit *)
}

type t = {
  cfg : config;
  sets : int;
  set_mask : int;  (** [sets - 1] when [sets] is a power of two, else -1 *)
  line_shift : int;  (** log2 [line_bytes] *)
  pages : int array array;
      (** page [p]: sets [p * page_sets ..], the [i]-th most recent way of
          set [s] at [(s mod page_sets) * ways + i]; [[||]] until touched *)
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let page_shift = 4
let page_sets = 1 lsl page_shift  (** sets per page *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let create (cfg : config) : t =
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a positive power of two";
  if cfg.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if cfg.size_bytes <= 0 then invalid_arg "Cache.create: size_bytes must be positive";
  if cfg.size_bytes mod (cfg.line_bytes * cfg.ways) <> 0 then
    invalid_arg "Cache.create: size_bytes must divide into ways * line_bytes";
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.ways) in
  {
    cfg;
    sets;
    set_mask = (if is_pow2 sets then sets - 1 else -1);
    line_shift = log2 cfg.line_bytes;
    pages = Array.make ((sets + page_sets - 1) lsr page_shift) [||];
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let reset (c : t) : unit =
  Array.fill c.pages 0 (Array.length c.pages) [||];
  c.hits <- 0;
  c.misses <- 0;
  c.writebacks <- 0

let line_of (c : t) (addr : int) : int = addr asr c.line_shift

(** Access one cache line. Returns [true] on hit. On miss the line is
    allocated (write-allocate for writes too), possibly writing back a
    dirty victim. *)
let access_line (c : t) ~(line : int) ~(is_write : bool) : bool =
  let ways = c.cfg.ways in
  let set = if c.set_mask >= 0 then line land c.set_mask else line mod c.sets in
  let p = set lsr page_shift in
  let slots =
    match c.pages.(p) with
    | [||] ->
        (* The last page holds only the sets that remain. *)
        let page = Array.make (min page_sets (c.sets - (p lsl page_shift)) * ways) (-1) in
        c.pages.(p) <- page;
        page
    | page -> page
  in
  let base = (set land (page_sets - 1)) * ways in
  let key = line lsl 1 and dirty = Bool.to_int is_write in
  (* Lines are unique within a set, so the scan stops at the first match.
     An empty way (-1) masks to -2, which no non-negative line's key is. *)
  let i = ref base and stop = base + ways in
  while !i < stop && slots.(!i) land -2 <> key do
    incr i
  done;
  let hit = !i < stop in
  let front =
    if hit then begin
      c.hits <- c.hits + 1;
      slots.(!i) lor dirty
    end
    else begin
      c.misses <- c.misses + 1;
      let last = slots.(stop - 1) in
      if last > 0 && last land 1 <> 0 then c.writebacks <- c.writebacks + 1;
      i := stop - 1;
      key lor dirty
    end
  in
  for j = !i downto base + 1 do
    slots.(j) <- slots.(j - 1)
  done;
  slots.(base) <- front;
  hit

(** Access [bytes] bytes at [addr]; accesses spanning lines touch each line.
    Returns the number of line misses (0 = all hits). *)
let access (c : t) ~(addr : int) ~(bytes : int) ~(is_write : bool) : int =
  let first = line_of c addr in
  let last = line_of c (addr + max 1 bytes - 1) in
  let misses = ref 0 in
  for line = first to last do
    if not (access_line c ~line ~is_write) then incr misses
  done;
  !misses

type stats = { s_hits : int; s_misses : int; s_writebacks : int }

let stats (c : t) : stats =
  { s_hits = c.hits; s_misses = c.misses; s_writebacks = c.writebacks }
