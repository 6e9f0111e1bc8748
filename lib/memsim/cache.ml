(** A set-associative, write-allocate, write-back cache with LRU
    replacement. Addresses are byte addresses; the cache tracks lines. *)

type config = {
  size_bytes : int;
  line_bytes : int;
  ways : int;
  latency : int;  (** cycles on hit *)
}

type t = {
  cfg : config;
  sets : int;
  tags : int array;  (** [set * ways + way] -> line tag, -1 = invalid *)
  lru : int array;  (** recency counter per slot; larger = more recent *)
  dirty : Bytes.t;  (** one byte per slot, ['\001'] = dirty *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create (cfg : config) : t =
  if cfg.size_bytes mod (cfg.line_bytes * cfg.ways) <> 0 then
    invalid_arg "Cache.create: size must divide into ways * line";
  let sets = cfg.size_bytes / (cfg.line_bytes * cfg.ways) in
  {
    cfg;
    sets;
    tags = Array.make (sets * cfg.ways) (-1);
    lru = Array.make (sets * cfg.ways) 0;
    dirty = Bytes.make (sets * cfg.ways) '\000';
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
  }

let reset (c : t) : unit =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.lru 0 (Array.length c.lru) 0;
  Bytes.fill c.dirty 0 (Bytes.length c.dirty) '\000';
  c.tick <- 0;
  c.hits <- 0;
  c.misses <- 0;
  c.writebacks <- 0

let line_of (c : t) (addr : int) : int = addr / c.cfg.line_bytes

(** Access one cache line. Returns [true] on hit. On miss the line is
    allocated (write-allocate for writes too), possibly writing back a
    dirty victim. *)
let access_line (c : t) ~(line : int) ~(is_write : bool) : bool =
  c.tick <- c.tick + 1;
  let base = line mod c.sets * c.cfg.ways in
  let stop = base + c.cfg.ways in
  (* Tags are unique within a set, so the scan stops at the first match;
     until then it tracks the least recently used slot (the first one of
     minimum recency) as the victim. *)
  let slot = ref base and victim = ref base in
  while !slot < stop && c.tags.(!slot) <> line do
    if c.lru.(!slot) < c.lru.(!victim) then victim := !slot;
    incr slot
  done;
  if !slot < stop then begin
    c.hits <- c.hits + 1;
    c.lru.(!slot) <- c.tick;
    if is_write then Bytes.set c.dirty !slot '\001';
    true
  end
  else begin
    let v = !victim in
    c.misses <- c.misses + 1;
    if c.tags.(v) >= 0 && Bytes.get c.dirty v <> '\000' then
      c.writebacks <- c.writebacks + 1;
    c.tags.(v) <- line;
    c.lru.(v) <- c.tick;
    Bytes.set c.dirty v (if is_write then '\001' else '\000');
    false
  end

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
