(** Promote: automatic __local insertion — the Grover rewrite run in
    reverse (Han & Abdelrahman, "Automatic Tuning of Local Memory Use on
    GPGPUs").

    Where {!Grover_core.Rewrite} replaces local-tile loads with direct
    global accesses, this pass detects group-wise *reuse* among affine
    global loads and stages them through a `__local` tile:

    + decompose each global-load index into [base + Σ var·coeff] where the
      vars are work-item coordinates ([get_local_id(d)]) and
      constant-trip-count loop counters, and the base/coeffs are
      group-uniform;
    + map the vars onto the local-size box: a thread-id var covers its own
      dimension, loop counters fill the remaining dimensions with equal
      extents — an exact bijection between work-items and tile elements,
      so the cooperative copy-in needs no guards;
    + synthesize the staging prologue in the (uniform) preheader of the
      outermost tiled loop: [barrier(local); one copy-in load/store per
      work-item per tile; barrier(local)] — one shared barrier pair for
      all tiles staged at the same point;
    + rewrite the reuse loads to index the tile by [Σ var·stride].

    Every store writes the element named by the work-item's own local
    ids — a bijection {!Grover_analysis.Race} certifies race-free — and
    the copy-in reads exactly the addresses the original loads would have
    touched, so bounds behaviour is unchanged. Candidates that do not fit
    (no reuse, footprint does not tile the box, divergent staging point,
    values unavailable at the preheader) are refused with a reason, never
    half-rewritten: the pass is plan/apply like the forward engine. *)

open Grover_ir
open Ssa
module Q = Grover_support.Rational
module Pass = Grover_passes.Pass
module Passes = Grover_passes
module Atom = Grover_core.Atom
module Config = Grover_analysis.Config

(* -- Constant-trip-count loops --------------------------------------------- *)

type loop = {
  l_phi : instr;  (** the induction phi: starts at 0, steps by 1 *)
  l_header : block;
  l_latch : block;
  l_preheader : block;  (** unique non-latch predecessor, unconditional *)
  l_trip : int;  (** iteration count: phi ranges over 0 .. trip-1 *)
  l_body : (int, unit) Hashtbl.t;  (** bids of the natural loop, incl. header *)
}

let in_loop (l : loop) (b : block) : bool = Hashtbl.mem l.l_body b.bid
let ( let* ) = Option.bind

(* Recognise the canonical lowered shape: phi incoming {0 from preheader,
   step from latch}, step = phi + 1, and an [icmp slt phi/step, C] feeding
   the exit branch in the header (while-form) or latch (do-while form). *)
let loop_of_phi (fn : func) (h : block) (i : instr) : loop option =
  match i.op with
  | Phi { incoming = [ (b1, v1); (b2, v2) ]; p_ty } when ty_is_integer p_ty ->
      let classify (bi, vi) (bl, vl) =
        match (vi, vl) with
        | Cint (_, 0), Vinstr step -> (
            match step.op with
            | Binop (Add, Cint (_, 1), Vinstr p) | Binop (Add, Vinstr p, Cint (_, 1))
              when p.iid = i.iid ->
                Some (bi, bl, step)
            | _ -> None)
        | _ -> None
      in
      let* _init, latch, step =
        match classify (b1, v1) (b2, v2) with
        | Some r -> Some r
        | None -> classify (b2, v2) (b1, v1)
      in
      let trip_from (b : block) (counter : instr) =
        match b.term with
        | Some { op = Cond_br (Vinstr c, _, _); _ } -> (
            match c.op with
            | Icmp (Islt, Vinstr p, Cint (_, n)) when p.iid = counter.iid && n >= 1
              ->
                Some n
            | _ -> None)
        | _ -> None
      in
      let* trip =
        match trip_from h i with Some n -> Some n | None -> trip_from latch step
      in
      let non_latch_preds =
        List.filter (fun p -> p.bid <> latch.bid) (predecessors fn h)
      in
      let* preheader =
        match non_latch_preds with
        | [ p ] -> (
            match p.term with Some { op = Br t; _ } when t.bid = h.bid -> Some p | _ -> None)
        | _ -> None
      in
      (* Natural-loop body: blocks reaching the latch without passing the
         header, plus the header itself. *)
      let body = Hashtbl.create 8 in
      Hashtbl.replace body h.bid ();
      let rec back (b : block) =
        if not (Hashtbl.mem body b.bid) then begin
          Hashtbl.replace body b.bid ();
          List.iter back (predecessors fn b)
        end
      in
      back latch;
      Some { l_phi = i; l_header = h; l_latch = latch; l_preheader = preheader;
             l_trip = trip; l_body = body }
  | _ -> None

let find_loops (fn : func) : loop list =
  List.concat_map
    (fun b -> List.filter_map (loop_of_phi fn b) b.instrs)
    fn.blocks

(* First block of the loop body in execution order. *)
let body_entry (l : loop) : block =
  match l.l_header.term with
  | Some { op = Cond_br (_, t, e); _ } -> if in_loop l t then t else e
  | Some { op = Br t; _ } -> t
  | _ -> l.l_header

(* Blocks of [l]'s body that execute unconditionally on every iteration:
   the chain of single-successor blocks from the body entry. The walk stops
   at the first conditional terminator (that block itself still executes
   unconditionally, so it is included). *)
let spine (l : loop) : block list =
  let b0 = body_entry l in
  if b0.bid = l.l_header.bid then [ b0 ]
  else
    let rec go acc (b : block) =
      if b.bid = l.l_header.bid || List.exists (fun x -> x.bid = b.bid) acc then
        acc
      else
        let acc = b :: acc in
        match b.term with Some { op = Br t; _ } -> go acc t | _ -> acc
    in
    go [] b0

let on_spine (l : loop) (b : block) : bool =
  List.exists (fun x -> x.bid = b.bid) (spine l)

(* -- Group-uniform polynomials --------------------------------------------- *)

(* A [uterm] is a rational constant times a product of group-uniform IR
   values; a [upoly] is a sum of uterms. These are the bases and
   coefficients of the decomposition — everything in them is the same for
   every work-item of the group, so materialising them once in the
   preheader is sound. *)
type uterm = { uc : Q.t; ufac : value list }
type upoly = uterm list

let vkey = function
  | Arg a -> (0, a.a_index)
  | Vinstr i -> (1, i.iid)
  | Cint _ | Cfloat _ -> invalid_arg "vkey: constant factor"

let cmp_fac a b = Stdlib.compare (vkey a) (vkey b)

let fac_eq a b =
  List.length a = List.length b && List.for_all2 value_equal a b

let up_const (q : Q.t) : upoly = if Q.is_zero q then [] else [ { uc = q; ufac = [] } ]
let up_val (v : value) : upoly = [ { uc = Q.one; ufac = [ v ] } ]

let up_add (a : upoly) (b : upoly) : upoly =
  List.fold_left
    (fun acc t ->
      let same, rest = List.partition (fun u -> fac_eq u.ufac t.ufac) acc in
      let c = List.fold_left (fun q u -> Q.add q u.uc) t.uc same in
      if Q.is_zero c then rest else { uc = c; ufac = t.ufac } :: rest)
    a b

let up_mul (a : upoly) (b : upoly) : upoly =
  List.fold_left
    (fun acc ta ->
      up_add acc
        (List.map
           (fun tb ->
             { uc = Q.mul ta.uc tb.uc;
               ufac = List.sort cmp_fac (ta.ufac @ tb.ufac) })
           b))
    [] a

let up_integral (p : upoly) : bool = List.for_all (fun t -> Q.is_integer t.uc) p
let up_factors (p : upoly) : value list = List.concat_map (fun t -> t.ufac) p

(* -- Index decomposition ---------------------------------------------------- *)

type vkind = Vlid of int | Vphi of loop

type tvar = { v_value : value; v_kind : vkind; v_extent : int }

let var_id (v : tvar) =
  match v.v_kind with Vlid d -> (0, d) | Vphi l -> (1, l.l_phi.iid)

(* index = Σ_{pvars} var·coeff + pbase, with group-uniform coeffs/base. *)
type poly = { pbase : upoly; pvars : (tvar * upoly) list }

exception Refuse of string

let refuse fmt = Format.kasprintf (fun s -> raise (Refuse s)) fmt

let vars_add (vs : (tvar * upoly) list) (ws : (tvar * upoly) list) =
  List.fold_left
    (fun acc (v, c) ->
      match List.partition (fun (u, _) -> var_id u = var_id v) acc with
      | [ (u, c0) ], rest ->
          let c' = up_add c0 c in
          if c' = [] then rest else (u, c') :: rest
      | _, rest -> if c = [] then rest else (v, c) :: rest)
    vs ws

let p_add (a : poly) (b : poly) : poly =
  { pbase = up_add a.pbase b.pbase; pvars = vars_add a.pvars b.pvars }

let p_scale_up (s : upoly) (p : poly) : poly =
  { pbase = up_mul s p.pbase;
    pvars =
      List.filter_map
        (fun (v, c) ->
          match up_mul s c with [] -> None | c' -> Some (v, c'))
        p.pvars }

let p_neg (p : poly) : poly = p_scale_up (up_const Q.minus_one) p

let box_dim (bx, by, bz) d = match d with 0 -> bx | 1 -> by | 2 -> bz | _ -> 1

let vname (v : value) : string =
  if Atom.is_atom_value v then Atom.name v
  else match v with Vinstr i -> Printf.sprintf "v%d" i.iid | _ -> "<expr>"

(** Decompose a flat global-load index into tiling vars and uniform rest.
    Vars are checked {e before} uniformity: a constant-trip loop counter is
    group-uniform, but it is a tiling coordinate, not an opaque leaf — and
    the recursion must keep descending through uniform arithmetic like
    [(t*16 + k) * N] to find the [k] inside. *)
let decompose ~(div : Divergence.t) ~(loops : loop list)
    ~(box : int * int * int) ~(load_block : block) (index : value) : poly =
  let rec go (v : value) : poly =
    match Atom.lid_dim v with
    | Some d when d >= 0 && d < 3 ->
        let var = { v_value = v; v_kind = Vlid d; v_extent = box_dim box d } in
        { pbase = []; pvars = [ (var, up_const Q.one) ] }
    | Some d -> refuse "thread-id dimension %d out of range" d
    | None -> (
        match v with
        | Cint (_, n) -> { pbase = up_const (Q.of_int n); pvars = [] }
        | Cfloat _ -> refuse "floating-point value in an index"
        | Arg _ -> { pbase = up_val v; pvars = [] }
        | Vinstr i -> (
            match
              List.find_opt
                (fun l -> l.l_phi.iid = i.iid && in_loop l load_block)
                loops
            with
            | Some l ->
                let var = { v_value = v; v_kind = Vphi l; v_extent = l.l_trip } in
                { pbase = []; pvars = [ (var, up_const Q.one) ] }
            | None -> (
                match i.op with
                | Binop (Add, a, b) -> p_add (go a) (go b)
                | Binop (Sub, a, b) -> p_add (go a) (p_neg (go b))
                | Binop (Mul, a, b) -> (
                    let pa = go a and pb = go b in
                    match (pa.pvars, pb.pvars) with
                    | [], _ -> p_scale_up pa.pbase pb
                    | _, [] -> p_scale_up pb.pbase pa
                    | _ ->
                        refuse "product of two thread-indexed subexpressions")
                | Binop (Shl, a, Cint (_, s)) when s >= 0 && s < 31 ->
                    p_scale_up (up_const (Q.of_int (1 lsl s))) (go a)
                | Cast ((Sext | Zext | Trunc), x, t) when ty_is_integer t ->
                    go x
                | _ ->
                    if Divergence.value_uniform div v then
                      { pbase = up_val v; pvars = [] }
                    else
                      refuse "divergent index component '%s' is not affine in \
                              thread ids"
                        (vname v))))
  in
  go index

(* -- Candidate planning ----------------------------------------------------- *)

type slot = {
  s_var : tvar;
  s_coeff : upoly;  (** global-index stride of this var *)
  s_dim : int;  (** local-size dimension the var is mapped onto *)
}

type cand = {
  c_load : instr;  (** the reuse load being promoted *)
  c_ptr : value;
  c_name : string;  (** tile name, e.g. "A_tile" *)
  c_elem : ty;
  c_base : upoly;
  c_slots : slot list;  (** tile-dims order: mapped dimension descending *)
  c_dims : int list;  (** declared tile shape, same order as [c_slots] *)
  c_bytes : int;
  c_reuse : int;  (** work-items reading each staged element *)
  c_outer : loop;  (** staging happens in this loop's preheader *)
}

let local_budget_bytes = 32768

let rec unwrap_ptr (v : value) : value =
  match v with
  | Vinstr { op = Cast (Bitcast, p, _); _ } -> unwrap_ptr p
  | _ -> v

let buffer_name (v : value) : string =
  match unwrap_ptr v with
  | Arg a -> a.a_name
  | Vinstr { op = Alloca { aname; _ }; _ } -> aname
  | _ -> "global"

(* Can [v] be referenced (or rebuilt from scratch) right before [anchor]?
   Pure chains over dominating defs, constants, arguments and work-item
   builtins can be re-materialised; anything flowing through a phi or a
   load that does not already dominate the anchor cannot — which is exactly
   the soundness condition: a value we rebuild in the preheader must be
   constant for the whole tiled-loop execution. *)
let remat_call (callee : string) : bool =
  List.mem callee
    [ "get_local_id"; "get_global_id"; "get_group_id"; "get_local_size";
      "get_global_size"; "get_num_groups"; "get_work_dim" ]

let rec available (dom : Dom.t) (anchor : instr) (seen : (int, unit) Hashtbl.t)
    (v : value) : bool =
  match v with
  | Cint _ | Cfloat _ | Arg _ -> true
  | Vinstr i ->
      Dom.def_dominates_use dom ~def:i ~use:anchor
      || (not (Hashtbl.mem seen i.iid))
         && begin
              Hashtbl.replace seen i.iid ();
              match i.op with
              | Binop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Extract _
              | Insert _ | Vecbuild _ ->
                  List.for_all (available dom anchor seen) (operands i.op)
              | Call { callee; args; _ } when remat_call callee ->
                  List.for_all (available dom anchor seen) args
              | _ -> false
            end

let plan_load ~(dom : Dom.t) ~(div : Divergence.t) ~(loops : loop list)
    ~(box : int * int * int) (load : instr) : (cand, string) result =
  try
    let block = match load.parent with Some b -> b | None -> raise Not_found in
    let ptr, index =
      match load.op with
      | Load { ptr; index } -> (ptr, index)
      | _ -> invalid_arg "plan_load: not a load"
    in
    let elem = elem_of_ptr (type_of ptr) in
    let p = decompose ~div ~loops ~box ~load_block:block index in
    if p.pvars = [] then
      refuse "no thread-id or tiled-loop term in the index (nothing to stage)";
    if not (up_integral p.pbase && List.for_all (fun (_, c) -> up_integral c) p.pvars)
    then refuse "non-integral index coefficient";
    (* Map vars onto the local-size box: lids to their own dimension, loop
       counters to the remaining dimensions (equal extents required). *)
    let lid_slots, phi_vars =
      List.partition_map
        (fun (v, c) ->
          match v.v_kind with
          | Vlid d -> Either.Left { s_var = v; s_coeff = c; s_dim = d }
          | Vphi _ -> Either.Right (v, c))
        p.pvars
    in
    let phi_vars =
      List.sort
        (fun ((a : tvar), _) ((b : tvar), _) -> Stdlib.compare (var_id a) (var_id b))
        phi_vars
    in
    let taken = List.map (fun s -> s.s_dim) lid_slots in
    let avail =
      List.filter (fun d -> not (List.mem d taken)) [ 0; 1; 2 ]
    in
    let phi_slots, left =
      List.fold_left
        (fun (slots, avail) ((v : tvar), c) ->
          match List.find_opt (fun d -> box_dim box d = v.v_extent) avail with
          | Some d ->
              ( { s_var = v; s_coeff = c; s_dim = d } :: slots,
                List.filter (fun x -> x <> d) avail )
          | None ->
              refuse
                "tile extent %d of loop counter '%s' does not match any free \
                 local-size dimension (footprint exceeds the work-group box)"
                v.v_extent (vname v.v_value))
        ([], avail) phi_vars
    in
    (match List.find_opt (fun d -> box_dim box d > 1) left with
    | Some d ->
        refuse
          "work-items along local dimension %d would stage no tile elements \
           (the work-group is larger than the tile footprint)"
          d
    | None -> ());
    let slots =
      List.sort (fun a b -> Stdlib.compare b.s_dim a.s_dim)
        (lid_slots @ phi_slots)
    in
    let dims = List.map (fun s -> s.s_var.v_extent) slots in
    let reuse =
      List.fold_left (fun acc s -> acc * s.s_var.v_extent) 1 phi_slots
    in
    if reuse < 2 then
      refuse "no inter-work-item reuse: each staged element would be read by \
              a single work item";
    let count = List.fold_left ( * ) 1 dims in
    let bytes = count * ty_size_bytes elem in
    (* The staging point: the preheader of the outermost tiled loop. *)
    let phi_loops =
      List.filter_map
        (fun s -> match s.s_var.v_kind with Vphi l -> Some l | Vlid _ -> None)
        slots
    in
    let ordered =
      List.sort
        (fun a b -> Stdlib.compare (Hashtbl.length b.l_body) (Hashtbl.length a.l_body))
        phi_loops
    in
    let rec chain = function
      | a :: (b :: _ as rest) ->
          if not (in_loop a b.l_header) then
            refuse "the tiled loop counters are not nested";
          if not (on_spine a b.l_preheader || on_spine a b.l_header) then
            refuse "an inner tiled loop is conditionally executed";
          chain rest
      | _ -> ()
    in
    chain ordered;
    let outer = List.hd ordered in
    let inner = List.nth ordered (List.length ordered - 1) in
    if not (on_spine inner block) then
      refuse "the reuse load is conditionally executed inside the tiled loop";
    if Divergence.block_divergent div outer.l_preheader then
      refuse "the staging point is under divergent control flow";
    (* Everything the copy-in references must be available in the
       preheader. *)
    let anchor =
      match outer.l_preheader.term with
      | Some t -> t
      | None -> refuse "the staging point has no terminator"
    in
    let needed =
      ptr :: up_factors p.pbase
      @ List.concat_map (fun s -> up_factors s.s_coeff) slots
    in
    List.iter
      (fun v ->
        if not (available dom anchor (Hashtbl.create 8) v) then
          refuse "'%s' is not available at the staging point" (vname v))
      needed;
    Ok
      { c_load = load; c_ptr = ptr; c_name = buffer_name ptr ^ "_tile";
        c_elem = elem; c_base = p.pbase; c_slots = slots; c_dims = dims;
        c_bytes = bytes; c_reuse = reuse; c_outer = outer }
  with Refuse msg -> Error msg

(* -- Application ------------------------------------------------------------ *)

(* Row-major strides for the tile shape, matching {!Grover_core.Index}. *)
let strides (dims : int list) : int list =
  fst
    (List.fold_left
       (fun (acc, run) d -> (run :: acc, run * d))
       ([], 1) (List.rev dims))

let apply (fn : func) (cands : cand list) : unit =
  let dom = Dom.compute fn in
  (* Group candidates staged at the same point so they share one barrier
     pair, as a hand-written kernel would. *)
  let groups =
    List.fold_left
      (fun groups c ->
        let ph = c.c_outer.l_preheader in
        match List.assoc_opt ph.bid groups with
        | Some (b, cs) ->
            (ph.bid, (b, cs @ [ c ])) :: List.remove_assoc ph.bid groups
        | None -> (ph.bid, (ph, [ c ])) :: groups)
      [] cands
    |> List.rev_map snd
  in
  let e = entry fn in
  let add_tile (c : cand) : instr =
    let count = List.fold_left ( * ) 1 c.c_dims in
    let tile =
      fresh_instr
        (Alloca
           { aspace = Local; elem = c.c_elem; count; dims = c.c_dims;
             aname = c.c_name })
    in
    (match e.instrs with
    | first :: _ -> insert_before e ~before:first tile
    | [] -> (
        match e.term with
        | Some t -> insert_before e ~before:t tile
        | None -> append_instr e tile));
    tile
  in
  List.iter
    (fun ((ph : block), cs) ->
      let term = match ph.term with Some t -> t | None -> assert false in
      let emit op =
        let i = fresh_instr op in
        insert_before ph ~before:term i;
        Vinstr i
      in
      let to_i32 v =
        match type_of v with
        | I32 -> v
        | I1 | I8 | I16 -> emit (Cast (Sext, v, I32))
        | I64 -> emit (Cast (Trunc, v, I32))
        | _ -> invalid_arg "promote: non-integer index component"
      in
      (* Re-materialise values that do not dominate the staging point from
         pure, execution-constant chains (planning verified feasibility). *)
      let memo : (int, value) Hashtbl.t = Hashtbl.create 8 in
      let rec resolve (v : value) : value =
        match v with
        | Cint _ | Cfloat _ | Arg _ -> v
        | Vinstr i -> (
            if Dom.def_dominates_use dom ~def:i ~use:term then v
            else
              match Hashtbl.find_opt memo i.iid with
              | Some r -> r
              | None ->
                  (match i.op with
                  | Phi _ | Load _ | Store _ | Alloca _ | Br _ | Cond_br _
                  | Ret | Barrier _ ->
                      invalid_arg "promote: unavailable value slipped planning"
                  | _ -> ());
                  let r = emit (map_operands ~f:resolve i.op) in
                  Hashtbl.replace memo i.iid r;
                  r)
      in
      let mat_up (p : upoly) : value =
        let term_v (t : uterm) : value =
          let c = match Q.to_int t.uc with Some c -> c | None -> assert false in
          match t.ufac with
          | [] -> Cint (I32, c)
          | f0 :: rest ->
              let base =
                List.fold_left
                  (fun acc f -> emit (Binop (Mul, acc, to_i32 (resolve f))))
                  (to_i32 (resolve f0))
                  rest
              in
              if c = 1 then base else emit (Binop (Mul, base, Cint (I32, c)))
        in
        match p with
        | [] -> Cint (I32, 0)
        | t0 :: rest ->
            List.fold_left
              (fun acc t -> emit (Binop (Add, acc, term_v t)))
              (term_v t0) rest
      in
      let lids : (int, value) Hashtbl.t = Hashtbl.create 4 in
      let lid d =
        match Hashtbl.find_opt lids d with
        | Some v -> v
        | None ->
            let v =
              emit
                (Call
                   { callee = "get_local_id"; args = [ Cint (I32, d) ];
                     ret = I32 })
            in
            Hashtbl.replace lids d v;
            v
      in
      let sum = function
        | [] -> Cint (I32, 0)
        | t0 :: rest ->
            List.fold_left (fun acc t -> emit (Binop (Add, acc, t))) t0 rest
      in
      ignore (emit (Barrier { blocal = true; bglobal = false }));
      let tiles =
        List.map
          (fun c ->
            let tile = add_tile c in
            let sts = strides c.c_dims in
            (* Each work-item stages the element named by its own local
               coordinates: flat tile index Σ lid(dim)·stride ... *)
            let tile_idx =
              sum
                (List.map2
                   (fun s st ->
                     let l = lid s.s_dim in
                     if st = 1 then l else emit (Binop (Mul, l, Cint (I32, st))))
                   c.c_slots sts)
            in
            (* ... read from the matching global address base + Σ
               lid(dim)·coeff — exactly the footprint the original loads
               cover over one execution of the tiled loop nest. *)
            let gterms =
              List.map
                (fun s ->
                  let l = lid s.s_dim in
                  match mat_up s.s_coeff with
                  | Cint (I32, 1) -> l
                  | cv -> emit (Binop (Mul, l, cv)))
                c.c_slots
            in
            let gidx =
              match mat_up c.c_base with
              | Cint (I32, 0) -> sum gterms
              | b -> sum (b :: gterms)
            in
            let ld = emit (Load { ptr = c.c_ptr; index = gidx }) in
            ignore (emit (Store { ptr = Vinstr tile; index = tile_idx; v = ld }));
            (c, tile))
          cs
      in
      ignore (emit (Barrier { blocal = true; bglobal = false }));
      (* Rewrite each reuse load to hit its tile. *)
      List.iter
        (fun ((c : cand), tile) ->
          let lblock = match c.c_load.parent with Some b -> b | None -> assert false in
          let emitl op =
            let i = fresh_instr op in
            insert_before lblock ~before:c.c_load i;
            Vinstr i
          in
          let to_i32l v =
            match type_of v with
            | I32 -> v
            | I1 | I8 | I16 -> emitl (Cast (Sext, v, I32))
            | I64 -> emitl (Cast (Trunc, v, I32))
            | _ -> invalid_arg "promote: non-integer tile coordinate"
          in
          let sts = strides c.c_dims in
          let terms =
            List.map2
              (fun s st ->
                let v = to_i32l s.s_var.v_value in
                if st = 1 then v else emitl (Binop (Mul, v, Cint (I32, st))))
              c.c_slots sts
          in
          let tidx =
            match terms with
            | [] -> Cint (I32, 0)
            | t0 :: rest ->
                List.fold_left (fun acc t -> emitl (Binop (Add, acc, t))) t0 rest
          in
          let ntl = fresh_instr (Load { ptr = Vinstr tile; index = tidx }) in
          insert_before lblock ~before:c.c_load ntl;
          replace_uses fn ~target:(Vinstr c.c_load) ~by:(Vinstr ntl))
        tiles)
    groups

(* -- Driver ------------------------------------------------------------------ *)

type outcome = {
  promoted : (string * int) list;  (** tile name, reuse factor *)
  p_rejected : (string * string) list;  (** load's buffer name, reason *)
  tile_bytes : int;  (** local bytes added by this run *)
}

let no_candidates = { promoted = []; p_rejected = []; tile_bytes = 0 }

let existing_local_bytes (fn : func) : int =
  fold_instrs
    (fun acc i ->
      match i.op with
      | Alloca { aspace = Local; elem; count; _ } ->
          acc + (count * ty_size_bytes elem)
      | _ -> acc)
    0 fn

let is_global_load (i : instr) : bool =
  match i.op with
  | Load { ptr; _ } -> (
      match type_of (unwrap_ptr ptr) with
      | Ptr ((Global | Constant), _) -> true
      | _ -> false)
  | _ -> false

let emit_remarks (ctx : Pass.ctx option) (fn : func) (o : outcome) : unit =
  match ctx with
  | None -> ()
  | Some c ->
      List.iter
        (fun (name, reuse) ->
          Pass.remarkf c ~pass:"promote-lm"
            "%s: staged '%s' through local memory (reuse factor %d)"
            fn.f_name name reuse)
        o.promoted;
      List.iter
        (fun (name, reason) ->
          Pass.remarkf c ~pass:"promote-lm" "%s: kept global load of '%s': %s"
            fn.f_name name reason)
        o.p_rejected

(** Promote group-wise reused global loads of [fn] to `__local` tiles, in
    place. The local-size box comes from {!Grover_analysis.Config.box_for}
    (drivers install the real one via [Config.with_local]).

    @param only restrict promotion to loads from these buffer names. *)
let run ?(only : string list option) ?(ctx : Pass.ctx option) (fn : func) :
    outcome =
  Atom.assign_phi_names fn;
  let box, _assumed = Config.box_for fn in
  let div = Divergence.compute fn in
  let dom = Dom.compute fn in
  let loops = find_loops fn in
  let selected name =
    match only with None -> true | Some names -> List.mem name names
  in
  let budget = ref (local_budget_bytes - existing_local_bytes fn) in
  let plans, rejected =
    fold_instrs
      (fun (plans, rejected) i ->
        if not (is_global_load i) then (plans, rejected)
        else
          let name =
            match i.op with Load { ptr; _ } -> buffer_name ptr | _ -> "global"
          in
          if not (selected name) then (plans, rejected)
          else
            match plan_load ~dom ~div ~loops ~box i with
            | Error reason -> (plans, (name, reason) :: rejected)
            | Ok c ->
                if c.c_bytes > !budget then
                  (plans, (name, "exceeds the local memory budget") :: rejected)
                else begin
                  budget := !budget - c.c_bytes;
                  (c :: plans, rejected)
                end)
      ([], []) fn
  in
  let plans = List.rev plans and rejected = List.rev rejected in
  if plans = [] then begin
    let o = { no_candidates with p_rejected = rejected } in
    emit_remarks ctx fn o;
    o
  end
  else begin
    apply fn plans;
    Passes.Pipeline.cleanup ?ctx fn;
    Verify.run fn;
    let o =
      {
        promoted = List.map (fun c -> (c.c_name, c.c_reuse)) plans;
        p_rejected = rejected;
        tile_bytes = List.fold_left (fun a c -> a + c.c_bytes) 0 plans;
      }
    in
    emit_remarks ctx fn o;
    o
  end

(** Promotion as a registered pass ("promote-lm"), mirroring "grover": the
    boolean is "did anything get staged". *)
let pass : Pass.t =
  Pass.register
    (Pass.make "promote-lm"
       ~descr:"stage reused global loads through __local tiles (Grover in reverse)"
       (fun ctx fn ->
         let o = run ~ctx fn in
         o.promoted <> []))
