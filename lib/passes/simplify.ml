(** Constant folding and algebraic simplification.

    Keeps index expressions in the normal form Grover's tree matcher
    expects: constants folded, additive/multiplicative identities removed,
    and comparison round-trips ([icmp ne (zext i1 c), 0]) collapsed. *)

open Grover_ir
open Ssa

let mask_of = function
  | I1 -> 1
  | I8 -> 0xff
  | I16 -> 0xffff
  | I32 -> 0xffffffff
  | _ -> -1

(* Reinterpret the masked bits as a signed value of the type's width. *)
let signed_of t n =
  match t with
  | I1 -> n land 1 (* i1 is canonically 0/1, matching icmp results *)
  | I8 ->
      let n = n land 0xff in
      if n >= 0x80 then n - 0x100 else n
  | I16 ->
      let n = n land 0xffff in
      if n >= 0x8000 then n - 0x10000 else n
  | I32 ->
      let n = n land 0xffffffff in
      if n >= 0x80000000 then n - 0x100000000 else n
  | _ -> n

let wrap t n = Cint (t, signed_of t n)

let fold_int_binop t op a b : value option =
  let u x = x land mask_of t in
  match op with
  | Add -> Some (wrap t (a + b))
  | Sub -> Some (wrap t (a - b))
  | Mul -> Some (wrap t (a * b))
  | Sdiv -> if b = 0 then None else Some (wrap t (a / b))
  | Udiv -> if b = 0 then None else Some (wrap t (u a / u b))
  | Srem -> if b = 0 then None else Some (wrap t (a mod b))
  | Urem -> if b = 0 then None else Some (wrap t (u a mod u b))
  | Shl -> Some (wrap t (a lsl (b land 63)))
  | Ashr -> Some (wrap t (a asr (b land 63)))
  | Lshr -> Some (wrap t (u a lsr (b land 63)))
  | And -> Some (wrap t (a land b))
  | Or -> Some (wrap t (a lor b))
  | Xor -> Some (wrap t (a lxor b))
  | Fadd | Fsub | Fmul | Fdiv | Frem -> None

let fold_float_binop op a b : value option =
  match op with
  | Fadd -> Some (Cfloat (a +. b))
  | Fsub -> Some (Cfloat (a -. b))
  | Fmul -> Some (Cfloat (a *. b))
  | Fdiv -> Some (Cfloat (a /. b))
  | Frem -> Some (Cfloat (Float.rem a b))
  | _ -> None

let fold_icmp t c a b : value option =
  let u x = x land mask_of t in
  let r =
    match c with
    | Ieq -> a = b
    | Ine -> a <> b
    | Islt -> a < b
    | Isle -> a <= b
    | Isgt -> a > b
    | Isge -> a >= b
    | Iult -> u a < u b
    | Iule -> u a <= u b
    | Iugt -> u a > u b
    | Iuge -> u a >= u b
  in
  Some (Cint (I1, if r then 1 else 0))

let is_zero = function Cint (_, 0) -> true | Cfloat 0.0 -> true | _ -> false
let is_one = function Cint (_, 1) -> true | Cfloat 1.0 -> true | _ -> false

(* One local rewrite step: Some v means "this instruction is just v". *)
let simplify_op (op : opcode) : value option =
  match op with
  | Binop (bop, Cint (t, a), Cint (_, b)) -> fold_int_binop t bop a b
  | Binop (bop, Cfloat a, Cfloat b) -> fold_float_binop bop a b
  | Binop ((Add | Or | Xor), x, z) when is_zero z -> Some x
  | Binop ((Add | Or | Xor), z, x) when is_zero z -> Some x
  | Binop (Sub, x, z) when is_zero z -> Some x
  | Binop ((Sub | Xor), x, y)
    when value_equal x y
         && (match type_of x with
            | I1 | I8 | I16 | I32 | I64 -> true
            | _ -> false) ->
      Some (Cint (type_of x, 0))
  | Binop (And, x, y) when value_equal x y -> Some x
  | Binop (Or, x, y) when value_equal x y -> Some x
  | Binop ((Shl | Ashr | Lshr), x, z) when is_zero z -> Some x
  | Binop (Mul, x, o) when is_one o -> Some x
  | Binop (Mul, o, x) when is_one o -> Some x
  | Binop (Mul, _, z) when is_zero z -> Some z
  | Binop (Mul, z, _) when is_zero z -> Some z
  | Binop (And, _, (Cint (_, 0) as z)) -> Some z
  | Binop (And, (Cint (_, 0) as z), _) -> Some z
  | Binop (Fadd, x, z) when is_zero z -> Some x
  | Binop (Fadd, z, x) when is_zero z -> Some x
  | Binop (Fsub, x, z) when is_zero z -> Some x
  | Binop (Fmul, x, o) when is_one o -> Some x
  | Binop (Fmul, o, x) when is_one o -> Some x
  | Icmp (c, Cint (t, a), Cint (_, b)) -> fold_icmp t c a b
  (* icmp ne (zext i1 c to _), 0  ==>  c *)
  | Icmp (Ine, Vinstr { op = Cast (Zext, c, _); _ }, Cint (_, 0))
    when type_of c = I1 ->
      Some c
  | Icmp (Ieq, Vinstr { op = Cast (Zext, c, _); _ }, Cint (_, 1))
    when type_of c = I1 ->
      Some c
  | Select (Cint (I1, 1), a, _) -> Some a
  | Select (Cint (I1, 0), _, b) -> Some b
  | Select (_, a, b) when value_equal a b -> Some a
  | Cast (k, Cint (t, n), dst) -> (
      match (k, dst) with
      | (Sext | Trunc), _ when dst <> F32 -> Some (wrap dst (signed_of t n))
      | Zext, _ when dst <> F32 -> Some (Cint (dst, n land mask_of t))
      | Si_to_fp, F32 -> Some (Cfloat (float_of_int (signed_of t n)))
      | Ui_to_fp, F32 -> Some (Cfloat (float_of_int (n land mask_of t)))
      | _ -> None)
  | Cast (Fp_to_si, Cfloat f, dst) when dst <> F32 ->
      Some (wrap dst (int_of_float f))
  | Cast ((Sext | Zext | Trunc | Bitcast), v, dst) when type_of v = dst -> Some v
  | Extract (Vinstr { op = Vecbuild (_, vs); _ }, Cint (_, lane))
    when lane >= 0 && lane < List.length vs ->
      Some (List.nth vs lane)
  | _ -> None

(* Dead-branch folding: cond_br on a constant becomes an unconditional br. *)
let fold_branches (fn : func) : bool =
  let changed = ref false in
  List.iter
    (fun b ->
      match b.term with
      | Some ({ op = Cond_br (Cint (I1, c), t, e); _ } as term) ->
          let target = if c <> 0 then t else e in
          let dropped = if c <> 0 then e else t in
          term.op <- Br target;
          (* The dropped edge disappears: fix the orphan's phis. *)
          List.iter
            (fun i ->
              match i.op with
              | Phi p ->
                  p.incoming <-
                    List.filter (fun (src, _) -> src.bid <> b.bid) p.incoming
              | _ -> ())
            dropped.instrs;
          changed := true
      | _ -> ())
    fn.blocks;
  if !changed then Cfg.prune_unreachable fn;
  !changed

let run (fn : func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    let rewrites =
      fold_instrs
        (fun acc i ->
          match simplify_op i.op with
          | Some v -> (i, v) :: acc
          | None -> acc)
        [] fn
    in
    if rewrites <> [] then begin
      (* Rewrites may chain (i1 -> i2 while i2 -> c); [substitute] follows
         them, so no use ends up pointing at a deleted instruction. *)
      let tbl = Hashtbl.create 16 in
      List.iter (fun (i, v) -> Hashtbl.replace tbl i.iid v) rewrites;
      substitute fn tbl;
      List.iter
        (fun (i, _) ->
          match i.parent with Some b -> remove_instr b i | None -> ())
        rewrites;
      continue_ := true;
      changed := true
    end;
    if fold_branches fn then begin
      continue_ := true;
      changed := true
    end;
    if !continue_ then Mem2reg.remove_trivial_phis fn
  done;
  !changed
