(** Promotion of private alloca slots to SSA registers.

    Standard SSA construction: phi placement on the iterated dominance
    frontier, then a renaming walk over the dominator tree. After promotion
    the index chains that Grover analyses bottom out at calls, constants,
    arguments and phis — the four leaf kinds of paper §IV-B.

    Trivial phis (all incoming values identical, possibly via self-reference)
    are removed afterwards, so loop-invariant variables do not masquerade as
    loop-carried values. *)

open Grover_ir
open Ssa

(* A private, single-element alloca is promotable when it is only ever used
   as the direct pointer of an index-0 load or store (never escaping). One
   sweep finds them, in reverse instruction order, and the blocks holding
   each one's stores (a multi-binding table keyed by the alloca's iid). *)
let promotable (fn : func) : instr list * (int, block) Hashtbl.t =
  let candidates = ref [] in
  let escaped : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let stores : (int, block) Hashtbl.t = Hashtbl.create 16 in
  let escape = function Vinstr p -> Hashtbl.replace escaped p.iid () | _ -> () in
  iter_instrs
    (fun i ->
      match i.op with
      | Alloca { aspace = Private; count = 1; _ } -> candidates := i :: !candidates
      | Load { ptr = Vinstr _; index = Cint (_, 0) } -> ()
      | Store { ptr = Vinstr p; index = Cint (_, 0); v } ->
          escape v;
          Option.iter (Hashtbl.add stores p.iid) i.parent
      | op -> List.iter escape (operands op))
    fn;
  (List.filter (fun a -> not (Hashtbl.mem escaped a.iid)) !candidates, stores)

let elem_ty (a : instr) =
  match a.op with
  | Alloca { elem; _ } -> elem
  | _ -> invalid_arg "elem_ty: not an alloca"

let zero_value (t : ty) : value =
  match t with
  | F32 -> Cfloat 0.0
  | Vec (F32, n) ->
      Vinstr (fresh_instr (Vecbuild (t, List.init n (fun _ -> Cfloat 0.0))))
  | Vec (e, n) ->
      Vinstr (fresh_instr (Vecbuild (t, List.init n (fun _ -> Cint (e, 0)))))
  | _ -> Cint (t, 0)

let rec run (fn : func) : bool =
  let allocas, stores = promotable fn in
  if allocas <> [] then begin
    let dom = Dom.compute fn in
    let cfg = dom.Dom.cfg in
    let nb = Cfg.n_blocks cfg in
    let block_of i = cfg.Cfg.order.(i) in
    (* For the zero_value vector case we may create detached vecbuilds; they
       must live in the entry block. *)
    let materialise_zero t =
      let v = zero_value t in
      (match v with
      | Vinstr i ->
          let e = entry fn in
          i.parent <- Some e;
          e.instrs <- i :: e.instrs
      | _ -> ());
      v
    in
    (* 1. Phi placement on the iterated dominance frontier of the stores. *)
    let phi_for : (int * int, instr) Hashtbl.t = Hashtbl.create 16 in
    (* (block rpo index, alloca iid) -> phi *)
    List.iter
      (fun a ->
        let defs = Array.make nb false in
        List.iter
          (fun b ->
            if Cfg.is_reachable cfg b then defs.(Cfg.rpo_index cfg b) <- true)
          (Hashtbl.find_all stores a.iid);
        let work = ref [] in
        Array.iteri (fun i d -> if d then work := i :: !work) defs;
        let placed = Array.make nb false in
        let rec go () =
          match !work with
          | [] -> ()
          | b :: rest ->
              work := rest;
              List.iter
                (fun f ->
                  if not placed.(f) then begin
                    placed.(f) <- true;
                    let blk = block_of f in
                    let phi =
                      fresh_instr (Phi { incoming = []; p_ty = elem_ty a })
                    in
                    phi.parent <- Some blk;
                    blk.instrs <- phi :: blk.instrs;
                    Hashtbl.add phi_for (f, a.iid) phi;
                    if not defs.(f) then work := f :: !work
                  end)
                dom.Dom.frontier.(b);
              go ()
        in
        go ())
      allocas;
    (* 2. Renaming walk over the dominator tree. *)
    let targets : (int, instr) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace targets a.iid a) allocas;
    let is_target iid = Hashtbl.mem targets iid in
    let replacement : (int, value) Hashtbl.t = Hashtbl.create 64 in
    (* load iid -> replacing value (may chain through other loads) *)
    let rec walk (bi : int) (incoming : (int * value) list) : unit =
      let blk = block_of bi in
      let cur = ref incoming in
      let get a =
        match List.assoc_opt a.iid !cur with
        | Some v -> v
        | None -> materialise_zero (elem_ty a)
      in
      let set a v = cur := (a.iid, v) :: List.remove_assoc a.iid !cur in
      (* Phis placed for an alloca define its current value on entry. *)
      List.iter
        (fun a ->
          match Hashtbl.find_opt phi_for (bi, a.iid) with
          | Some phi -> set a (Vinstr phi)
          | None -> ())
        allocas;
      List.iter
        (fun i ->
          match i.op with
          | Load { ptr = Vinstr p; index = Cint (_, 0) } when is_target p.iid ->
              Hashtbl.replace replacement i.iid (get (Hashtbl.find targets p.iid))
          | Store { ptr = Vinstr p; index = Cint (_, 0); v } when is_target p.iid ->
              set (Hashtbl.find targets p.iid) v
          | _ -> ())
        blk.instrs;
      (* Fill successor phi entries with the value at the end of this block. *)
      List.iter
        (fun s ->
          if Cfg.is_reachable cfg s then
            let si = Cfg.rpo_index cfg s in
            List.iter
              (fun a ->
                match Hashtbl.find_opt phi_for (si, a.iid) with
                | Some phi -> (
                    match phi.op with
                    | Phi p -> p.incoming <- p.incoming @ [ (blk, get a) ]
                    | _ -> assert false)
                | None -> ())
              allocas)
        (successors blk);
      List.iter (fun child -> walk child !cur) dom.Dom.children.(bi)
    in
    walk 0 [];
    (* 3. Rewrite all operands through the replacement map (resolving
       chains), then delete the dead loads, stores and allocas. *)
    substitute fn replacement;
    List.iter
      (fun blk ->
        blk.instrs <-
          List.filter
            (fun i ->
              match i.op with
              | Load { ptr = Vinstr p; _ } when is_target p.iid -> false
              | Store { ptr = Vinstr p; _ } when is_target p.iid -> false
              | Alloca _ when is_target i.iid -> false
              | _ -> true)
            blk.instrs)
      fn.blocks
  end;
  remove_trivial_phis fn;
  allocas <> []

(* A phi is trivial if every incoming value is either the phi itself or one
   common value v; the phi then just names v. Each round reads incoming
   values through the phis it already found trivial, as if their uses were
   rewritten on the spot, and rewrites them all in one sweep at its end. *)
and remove_trivial_phis (fn : func) : unit =
  let changed = ref true in
  while !changed do
    let trivial : (int, value) Hashtbl.t = Hashtbl.create 8 in
    let rec resolve v =
      match v with
      | Vinstr j -> (
          match Hashtbl.find_opt trivial j.iid with
          | Some v' -> resolve v'
          | None -> v)
      | _ -> v
    in
    List.iter
      (fun blk ->
        let found = Hashtbl.length trivial in
        List.iter
          (fun i ->
            match i.op with
            | Phi { incoming; _ } -> (
                let foreign =
                  List.filter_map
                    (fun (_, v) ->
                      match resolve v with
                      | Vinstr j when j.iid = i.iid -> None
                      | v -> Some v)
                    incoming
                in
                match foreign with
                | v :: rest when List.for_all (value_equal v) rest ->
                    Hashtbl.replace trivial i.iid v
                | _ -> ())
            | _ -> ())
          blk.instrs;
        if Hashtbl.length trivial > found then
          blk.instrs <-
            List.filter (fun i -> not (Hashtbl.mem trivial i.iid)) blk.instrs)
      fn.blocks;
    substitute fn trivial;
    changed := Hashtbl.length trivial > 0
  done
