(** Device memory: flat buffers with a byte-address layout for the
    performance simulator.

    Every buffer gets a range in a single 64-bit address space (global and
    constant buffers from a bump allocator; local buffers in one local
    region that every work-group re-uses, as a hardware thread of a vendor
    CPU runtime does — the simulator moves it into the window of the core
    a group runs on). Data itself lives in OCaml arrays — one scalar slot
    per vector lane. *)

open Grover_ir
open Ssa

type storage = F of float array | I of int array

type buffer = {
  bid : int;
  buid : int;
      (** process-globally unique id (buffers of different {!t}s share a
          [bid] space but never a [buid]); the command-queue layer keys its
          read/write hazard tracking on it. Allocated atomically — worker
          domains allocate private buffers concurrently. *)
  mutable bname : string;
      (** best-known source name: the [__local] variable or the kernel
          argument the buffer is bound to ("" until known); diagnostics
          only, never used for lookup *)
  elem : ty;  (** element type (may be a vector) *)
  lanes : int;  (** scalar lanes per element (1 for scalars) *)
  elem_bytes : int;
  n : int;  (** number of elements *)
  st : storage;
  base_addr : int;  (** byte address of element 0 *)
  space : space;
}

type t = {
  mutable next_addr : int;
  mutable next_bid : int;
  mutable buffers : buffer list;
}

let global_base = 0x1000_0000
let local_region_base = 0x0100_0000

let create () : t = { next_addr = global_base; next_bid = 0; buffers = [] }

let next_buid = Atomic.make 0

let scalar_of = function Vec (s, _) -> s | s -> s

let lanes_of = function Vec (_, n) -> n | _ -> 1

let storage_for (elem : ty) (slots : int) : storage =
  match scalar_of elem with
  | F32 -> F (Array.make slots 0.0)
  | I1 | I8 | I16 | I32 | I64 -> I (Array.make slots 0)
  | _ -> invalid_arg "storage_for: unsupported element type"

let align_up n a = (n + a - 1) / a * a

let alloc_at (m : t) ?(name = "") ~(space : space) ~(base_addr : int)
    (elem : ty) (n : int) : buffer =
  let lanes = lanes_of elem in
  let b =
    {
      bid = m.next_bid;
      buid = Atomic.fetch_and_add next_buid 1;
      bname = name;
      elem;
      lanes;
      elem_bytes = ty_size_bytes elem;
      n;
      st = storage_for elem (n * lanes);
      base_addr;
      space;
    }
  in
  m.next_bid <- m.next_bid + 1;
  m.buffers <- b :: m.buffers;
  b

(** Allocate a global (or constant) buffer of [n] elements. *)
let alloc (m : t) ?name ?(space = Global) (elem : ty) (n : int) : buffer =
  let base = align_up m.next_addr 256 in
  let b = alloc_at m ?name ~space ~base_addr:base elem n in
  m.next_addr <- base + (n * ty_size_bytes elem);
  b

(** Allocate a local buffer at byte offset [offset] of the local region
    (every work-group's local buffers have the same addresses). *)
let alloc_local (m : t) ?name ~(offset : int) (elem : ty) (n : int) : buffer =
  alloc_at m ?name ~space:Local ~base_addr:(local_region_base + offset) elem n

(** A short human label for diagnostics: the source name when known,
    otherwise the address space plus buffer id. *)
let describe (b : buffer) : string =
  let space =
    match b.space with
    | Global -> "global"
    | Local -> "local"
    | Constant -> "constant"
    | Private -> "private"
  in
  if b.bname <> "" then Printf.sprintf "%s buffer '%s'" space b.bname
  else Printf.sprintf "%s buffer #%d" space b.bid

(** Zero a buffer's storage in place. The runtime reuses one local-memory
    allocation per execution context across all the work-groups it runs;
    clearing it at group start restores the fresh-buffer semantics groups
    observed when each one allocated its own storage. *)
let clear (b : buffer) : unit =
  match b.st with
  | F a -> Array.fill a 0 (Array.length a) 0.0
  | I a -> Array.fill a 0 (Array.length a) 0

(* -- Element access ------------------------------------------------------- *)

let addr_of (b : buffer) (idx : int) : int = b.base_addr + (idx * b.elem_bytes)

let check b idx =
  if idx < 0 || idx >= b.n then
    invalid_arg
      (Printf.sprintf "buffer %d (%s): element index %d out of bounds [0,%d)"
         b.bid
         (match b.space with
         | Global -> "global"
         | Local -> "local"
         | Constant -> "constant"
         | Private -> "private")
         idx b.n)

let get_float (b : buffer) (idx : int) : float =
  check b idx;
  match b.st with F a -> a.(idx) | I a -> float_of_int a.(idx)

let set_float (b : buffer) (idx : int) (v : float) : unit =
  check b idx;
  match b.st with F a -> a.(idx) <- v | I a -> a.(idx) <- int_of_float v

let get_int (b : buffer) (idx : int) : int =
  check b idx;
  match b.st with I a -> a.(idx) | F a -> int_of_float a.(idx)

let set_int (b : buffer) (idx : int) (v : int) : unit =
  check b idx;
  match b.st with I a -> a.(idx) <- v | F a -> a.(idx) <- float_of_int v

(* Lane-resolved accessors for vector elements. *)
let slot (b : buffer) (idx : int) (lane : int) : int = (idx * b.lanes) + lane

let get_lane_float (b : buffer) (idx : int) (lane : int) : float =
  check b idx;
  match b.st with
  | F a -> a.(slot b idx lane)
  | I a -> float_of_int a.(slot b idx lane)

let set_lane_float (b : buffer) (idx : int) (lane : int) (v : float) : unit =
  check b idx;
  match b.st with
  | F a -> a.(slot b idx lane) <- v
  | I a -> a.(slot b idx lane) <- int_of_float v

let get_lane_int (b : buffer) (idx : int) (lane : int) : int =
  check b idx;
  match b.st with
  | I a -> a.(slot b idx lane)
  | F a -> int_of_float a.(slot b idx lane)

let set_lane_int (b : buffer) (idx : int) (lane : int) (v : int) : unit =
  check b idx;
  match b.st with
  | I a -> a.(slot b idx lane) <- v
  | F a -> a.(slot b idx lane) <- float_of_int v

(* -- Whole-buffer helpers for hosts and tests ------------------------------ *)

let fill_floats (b : buffer) (f : int -> float) : unit =
  match b.st with
  | F a -> Array.iteri (fun i _ -> a.(i) <- f i) a
  | I _ -> invalid_arg "fill_floats on an integer buffer"

let fill_ints (b : buffer) (f : int -> int) : unit =
  match b.st with
  | I a -> Array.iteri (fun i _ -> a.(i) <- f i) a
  | F _ -> invalid_arg "fill_ints on a float buffer"

let to_float_array (b : buffer) : float array =
  match b.st with F a -> Array.copy a | I a -> Array.map float_of_int a

let to_int_array (b : buffer) : int array =
  match b.st with I a -> Array.copy a | F a -> Array.map int_of_float a
