(** OpenCL C builtin functions known to the front-end.

    Work-item functions take a dimension index and return [size_t] (modelled
    as [int]); math builtins are generically typed over float scalars and
    vectors; [barrier] takes fence flags. The predefined fence-flag macros
    are exposed as constants so kernels can say
    [barrier(CLK_LOCAL_MEM_FENCE)]. *)

type category =
  | Work_item  (** (uint dim) -> int : get_global_id and friends *)
  | Work_dim  (** () -> int : get_work_dim *)
  | Barrier  (** (uint flags) -> void *)
  | Math_1  (** gentype -> gentype over float base *)
  | Math_2  (** (gentype, gentype) -> gentype over float base *)
  | Math_3  (** (gentype, gentype, gentype) -> gentype over float base *)
  | Int_2  (** (igentype, igentype) -> igentype *)
  | Int_3  (** (igentype, igentype, igentype) -> igentype *)
  | Any_2  (** min/max: int or float gentype *)
  | Dot  (** (floatN, floatN) -> float *)

let work_item_functions =
  [ "get_global_id"; "get_local_id"; "get_group_id"; "get_global_size";
    "get_local_size"; "get_num_groups"; "get_global_offset" ]

let table : (string * category) list =
  List.map (fun n -> (n, Work_item)) work_item_functions
  @ [ ("get_work_dim", Work_dim);
      ("barrier", Barrier);
      ("sqrt", Math_1); ("native_sqrt", Math_1);
      ("rsqrt", Math_1); ("native_rsqrt", Math_1);
      ("fabs", Math_1);
      ("exp", Math_1); ("native_exp", Math_1);
      ("log", Math_1); ("native_log", Math_1);
      ("sin", Math_1); ("native_sin", Math_1);
      ("cos", Math_1); ("native_cos", Math_1);
      ("floor", Math_1); ("ceil", Math_1);
      ("fmax", Math_2); ("fmin", Math_2);
      ("pow", Math_2); ("fmod", Math_2); ("hypot", Math_2);
      ("native_divide", Math_2);
      ("mad", Math_3); ("fma", Math_3); ("clamp", Math_3); ("mix", Math_3);
      ("abs", Math_1);
      ("mul24", Int_2); ("mad24", Int_3);
      ("min", Any_2); ("max", Any_2);
      ("dot", Dot) ]

let category name = List.assoc_opt name table

(* Fence flags as in cl.h; usable with | in kernels. *)
let predefined_constants =
  [ ("CLK_LOCAL_MEM_FENCE", 1); ("CLK_GLOBAL_MEM_FENCE", 2) ]
