(* Fused-group kernel compilation (§4.2 fused code generation).

   [plan] runs at [Pipeline.compile] time and decides, per fusion group,
   whether the group can execute as ONE kernel instead of op-by-op through
   the interpreter.  The compile-time product is a [template]: the group's
   member nodes, its external element inputs in a fixed slot order, and the
   optional heavy anchor (MatMul/Gemm/Conv/Conv1d first member) and the
   optional pooling tail (last member).

   [specialize] runs the first time a group executes under concrete input
   dims (RDP guarantees those dims satisfy the symbolic facts fusion
   legality was proven against; each still-ambiguous broadcast collapses to
   one concrete variant here — the runtime side of bounded multi-version
   code generation).  It closure-compiles the member tree into a single
   per-element function over the terminal output's flat index space:

   - every broadcast/transpose becomes a precomputed index map (identity,
     table, or strided arithmetic), scalars are hoisted out of the loop,
     and view ops (reshape/squeeze/…) are free because they preserve flat
     order — no intermediate tensor is ever allocated;
   - a heavy anchor runs through the blocked kernels with the group's
     One-to-One chain lowered to a typed write-back program
     ({!Blocked.f_epilogue}) that the C tile applies before its single
     store, so bias/BN/activation/residual chains cost no second pass.  A
     chain that does not lower (a transposed or table-mapped chain value,
     a chain value used twice as in x·σ(x), casts, Where, a unary with no
     C twin) runs two-phase: the anchor result first, into a scratch of
     the kind op-by-op execution stores it in, then the chain as the
     elementwise phase over it;
   - a group may end in one pooling op (MaxPool, AveragePool,
     GlobalAveragePool): everything before it is written into a
     per-domain scratch of the destination's kind, then pooled into the
     destination by the same loop the op-by-op kernel runs;
   - the per-element closures call the exact {!Op_semantics} functions the
     reference kernels use, and the typed steps reproduce them in C bit
     for bit, which keeps fused groups equal to op-by-op execution.

   Specialized kernels are cached by the runtime backend per
   (group × concrete shape tuple); this module is purely functional. *)

type template = {
  t_gid : int;
  t_members : Graph.node list;  (** in topological order *)
  t_anchor : Graph.node option;  (** heavy first member, when present *)
  t_pool : Graph.node option;  (** pooling last member, when present *)
  t_out : Graph.tensor_id;  (** the terminal (only materialized) output *)
  t_slots : Graph.tensor_id array;  (** external element inputs, slot order *)
  t_versions : int;  (** broadcast versions bounded at fusion time *)
}

type kernel = {
  k_out : Graph.tensor_id;
  k_dims : (Graph.tensor_id * int list) list;
      (** concrete output dims of every member, terminal included *)
  k_run : par:Blocked.par -> Tensor.t array -> Tensor.t;
      (** args in slot order; returns the terminal tensor *)
  k_run_into :
    par:Blocked.par -> Tensor.view array -> c:Tensor.fbuf -> co:int -> unit;
      (** destination-passing variant: args arrive as offset-carrying
          views, the terminal result is written into [c] at element offset
          [co] — the arena executor points this at a planned slot *)
  k_dtype : Tensor.dtype;  (** the terminal's kind, as op-by-op execution stores it *)
  k_two_phase : bool;
      (** an anchored kernel whose chain did not lower to a write-back
          program: anchor first, then the chain over its result *)
}

(* ------------------------------------------------------------------ *)
(* Compile-time planning                                               *)

let is_heavy = function
  | Op.MatMul | Op.Gemm _ | Op.Conv _ | Op.Conv1d _ -> true
  | _ -> false

(* Many-to-One ops a group may end in (DNNFusion's mapping types): each
   output element reads a window of the chain's result. *)
let is_pool = function
  | Op.MaxPool _ | Op.AveragePool _ | Op.GlobalAveragePool -> true
  | _ -> false

(* Operators the per-element compiler can lower.  Reshape qualifies only
   with a constant target: a data-dependent target would need the value
   lattice at run time, and the op-by-op path handles that rarity. *)
let elementwise_ok g (nd : Graph.node) =
  match nd.Graph.op with
  | Op.Unary _ | Op.Binary _ | Op.Clip _ | Op.Where | Op.Transpose _ | Op.Flatten _
  | Op.Squeeze _ | Op.Unsqueeze _ | Op.BatchNorm _ -> true
  | Op.Cast (Tensor.F32 | Tensor.F64) -> true
  | Op.Reshape -> (
    match nd.Graph.inputs with
    | [ _; target ] -> Graph.const_value g target <> None
    | _ -> false)
  | _ -> false

(* Inputs that carry element data (as opposed to shape operands). *)
let element_inputs (nd : Graph.node) =
  match nd.Graph.op, nd.Graph.inputs with
  | Op.Reshape, [ x; _target ] -> [ x ]
  | _, ins -> ins

let template_of g (grp : Fusion.group) =
  match grp.Fusion.members with
  | [] | [ _ ] -> None
  | mids ->
    let members = List.map (Graph.node g) mids in
    let first = List.hd members in
    let anchor = if is_heavy first.Graph.op then Some first else None in
    let body = match anchor with Some _ -> List.tl members | None -> members in
    (* A pooling tail must pool the value the member before it produced. *)
    let body, pool =
      match List.rev body with
      | last :: rest when is_pool last.Graph.op -> (
        let prev =
          match rest, anchor with
          | p :: _, _ | [], Some p -> Some p
          | [], None -> None
        in
        match prev with
        | Some p when last.Graph.inputs = p.Graph.outputs -> List.rev rest, Some last
        | _ -> body, None)
      | _ -> body, None
    in
    let single_out nd = List.length nd.Graph.outputs = 1 in
    if List.for_all single_out members && List.for_all (elementwise_ok g) body then begin
      let produced = Hashtbl.create 8 in
      List.iter
        (fun nd -> List.iter (fun o -> Hashtbl.replace produced o ()) nd.Graph.outputs)
        members;
      let seen = Hashtbl.create 8 in
      let slots = ref [] in
      List.iter
        (fun nd ->
          List.iter
            (fun tid ->
              if (not (Hashtbl.mem produced tid)) && not (Hashtbl.mem seen tid) then begin
                Hashtbl.add seen tid ();
                slots := tid :: !slots
              end)
            (element_inputs nd))
        members;
      let terminal = List.nth members (List.length members - 1) in
      Some
        {
          t_gid = grp.Fusion.gid;
          t_members = members;
          t_anchor = anchor;
          t_pool = pool;
          t_out = List.hd terminal.Graph.outputs;
          t_slots = Array.of_list (List.rev !slots);
          t_versions = grp.Fusion.versions;
        }
    end
    else None

(* [quantized] marks nodes the runtime will execute through the int8
   weight-quantized kernels: their groups must keep op-by-op execution —
   the fused float template would compute from the original float weights,
   silently bypassing quantization for exactly the shapes fusion covers. *)
let plan ?(quantized = fun (_ : Graph.node) -> false) g (fp : Fusion.plan) =
  Array.map
    (fun grp ->
      match template_of g grp with
      | Some tpl when List.exists quantized tpl.t_members -> None
      | t -> t)
    fp.Fusion.groups

(* Per-variant view of a template array: dead groups lose their template
   so nothing downstream (backend kernel caches, vetting sweeps) can
   specialize a kernel the variant never executes.  Group contents are
   outcome-independent — control-flow ops never fuse — so live groups
   share the base templates, and with them every cached specialization. *)
let restrict templates ~live =
  Array.mapi (fun gid t -> if live gid then t else None) templates

(* ------------------------------------------------------------------ *)
(* Index maps                                                          *)

(* Maps are from the consumer's flat index space into a source space,
   described per consumer dim by a source stride.  Small spaces become
   lookup tables (built with an odometer walk, no div/mod); large ones
   stay as strided arithmetic so a specialization never allocates O(huge)
   tables. *)
type imap =
  | Id
  | Tbl of int array
  | Strided of int array * int array  (* consumer dims, source stride per dim *)

let table_cap = 1 lsl 18

let strides_of (d : int array) =
  let r = Array.length d in
  let s = Array.make r 0 in
  let acc = ref 1 in
  for i = r - 1 downto 0 do
    s.(i) <- !acc;
    acc := !acc * d.(i)
  done;
  s

let map_of ~od ~ss =
  let ostr = strides_of od in
  let r = Array.length od in
  let identity = ref true in
  for d = 0 to r - 1 do
    if od.(d) > 1 && ss.(d) <> ostr.(d) then identity := false
  done;
  if !identity then Id
  else
    let n = Array.fold_left ( * ) 1 od in
    if n <= table_cap then begin
      let t = Array.make n 0 in
      let coord = Array.make r 0 in
      let off = ref 0 in
      for i = 0 to n - 1 do
        t.(i) <- !off;
        let j = ref (r - 1) in
        let carry = ref true in
        while !carry && !j >= 0 do
          let d = !j in
          coord.(d) <- coord.(d) + 1;
          off := !off + ss.(d);
          if coord.(d) = od.(d) then begin
            coord.(d) <- 0;
            off := !off - (ss.(d) * od.(d));
            decr j
          end
          else carry := false
        done
      done;
      Tbl t
    end
    else Strided (Array.copy od, Array.copy ss)

let strided_index od ss i =
  let r = Array.length od in
  let off = ref 0 and rem = ref i in
  for d = r - 1 downto 0 do
    let q = !rem mod od.(d) in
    rem := !rem / od.(d);
    off := !off + (q * ss.(d))
  done;
  !off

(* Numpy-style right-aligned broadcast of [fd] into [od]. *)
let broadcast_map ~od ~fd =
  let r = Array.length od in
  let fr = Array.length fd in
  let fpad = Array.make r 1 in
  Array.blit fd 0 fpad (r - fr) fr;
  let fstr = strides_of fpad in
  let ss = Array.init r (fun d -> if fpad.(d) = 1 then 0 else fstr.(d)) in
  map_of ~od ~ss

let transpose_map ~od ~ind ~perm =
  let instr = strides_of ind in
  let ss = Array.of_list (List.map (fun p -> instr.(p)) perm) in
  map_of ~od ~ss

(* ------------------------------------------------------------------ *)
(* Specialization                                                      *)

exception Spec_fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Spec_fail s)) fmt

module BA1 = Bigarray.Array1

(* [acc] holds the anchor's result on the two-phase path, stored in the
   kind the reference stores it (f32 when every slot is f32). *)
type env = { args : Tensor.view array; acc : Tensor.fbuf }

let no_acc = Tensor.fbuf_create Tensor.F64 0

(* One compiled expression node of the elementwise phase: its concrete
   dims and a maker that — given the call's runtime environment — hoists
   whatever it can (data pointers, scalars, per-channel tables) and
   returns the per-element function over the node's flat index. *)
type info = {
  dims : int array;
  mk : env -> int -> float;
}

let numel_of (d : int array) = Array.fold_left ( * ) 1 d

let grain = 16_384

let fill_into par (dst : Tensor.fbuf) ~off ~n gfn =
  (* The store is the group's single rounding point: f32 destinations
     round the double-precision closure result here and nowhere else. *)
  let body lo hi =
    match dst with
    | Tensor.FB32 d ->
      for i = lo to hi do
        BA1.unsafe_set d (off + i) (gfn i)
      done
    | Tensor.FB64 d ->
      for i = lo to hi do
        BA1.unsafe_set d (off + i) (gfn i)
      done
  in
  if n >= 2 * grain then
    par.Blocked.run
      ((n + grain - 1) / grain)
      (fun ci ->
        let lo = ci * grain in
        body lo (min n (lo + grain) - 1))
  else body 0 (n - 1)

(* The C twins of the {!Op_semantics} unaries (see {!Blocked.f_unary}).
   [Round] stays off the list: OCaml's [Float.round] is its own runtime
   primitive. *)
let blocked_unary : Op.unary -> Blocked.f_unary option = function
  | Op.Relu -> Some Blocked.Relu
  | Op.LeakyRelu a -> Some (Blocked.Leaky_relu a)
  | Op.Sigmoid -> Some Blocked.Sigmoid
  | Op.Tanh -> Some Blocked.Tanh
  | Op.Exp -> Some Blocked.Exp
  | Op.Log -> Some Blocked.Log
  | Op.Sqrt -> Some Blocked.Sqrt
  | Op.Neg -> Some Blocked.Neg
  | Op.Abs -> Some Blocked.Abs
  | Op.Erf -> Some Blocked.Erf
  | Op.Gelu -> Some Blocked.Gelu
  | Op.HardSwish -> Some Blocked.Hard_swish
  | Op.Softplus -> Some Blocked.Softplus
  | Op.Floor -> Some Blocked.Floor
  | Op.Ceil -> Some Blocked.Ceil
  | Op.Reciprocal -> Some Blocked.Reciprocal
  | Op.Softsign -> Some Blocked.Softsign
  | Op.Sign -> Some Blocked.Sign
  | Op.Not -> Some Blocked.Not
  | Op.Round | Op.Identity -> None

let blocked_binop : Op.binary -> Blocked.f_binop option = function
  | Op.Add -> Some Blocked.Add
  | Op.Sub -> Some Blocked.Sub
  | Op.Mul -> Some Blocked.Mul
  | Op.Div -> Some Blocked.Div
  | Op.Max2 -> Some Blocked.Max2
  | Op.Min2 -> Some Blocked.Min2
  | _ -> None

(* How an operand of dims [fd], broadcast into [od], is read at output
   index [flat]: [(flat / div) mod len].  That holds when the operand's
   non-unit axes form one block of [od] with no broadcast axis inside;
   any other broadcast has no such form ([None]). *)
let operand_addr ~od ~fd =
  let r = Array.length od and fr = Array.length fd in
  if fr > r then None
  else begin
    let fpad = Array.make r 1 in
    Array.blit fd 0 fpad (r - fr) fr;
    let kept = List.filter (fun d -> fpad.(d) > 1) (List.init r Fun.id) in
    let prod lo hi =
      let p = ref 1 in
      for d = lo to hi do
        p := !p * od.(d)
      done;
      !p
    in
    if List.exists (fun d -> fpad.(d) <> 1 && fpad.(d) <> od.(d)) kept then None
    else
      match kept with
      | [] -> Some (1, 1)
      | lo :: _ ->
        let hi = List.fold_left max lo kept in
        let gap = ref false in
        for d = lo to hi do
          if fpad.(d) = 1 && od.(d) > 1 then gap := true
        done;
        if !gap then None else Some (prod (hi + 1) (r - 1), prod lo hi)
  end

(* Roles of tensors while lowering a chain: the running chain value, an
   external slot seen through views (slot index, dims), or anything
   else. *)
type role = Chain | Operand of int * int array | Opaque

exception No_lowering

(* Per-domain scratch for the value a pooling tail pools, one per kind;
   it only grows.  A domain runs one fused kernel at a time. *)
let pool_scratch =
  Domain.DLS.new_key (fun () ->
      ref (Tensor.fbuf_create Tensor.F32 0), ref (Tensor.fbuf_create Tensor.F64 0))

let pool_scratch_for dt n =
  let r32, r64 = Domain.DLS.get pool_scratch in
  let r = if dt = Tensor.F32 then r32 else r64 in
  if Tensor.fbuf_len !r < n then r := Tensor.fbuf_create dt n;
  !r

let specialize g (tpl : template) ~(tiles : Multi_version.shape_class -> Blocked.tiles)
    ~(args : (int list * Tensor.dtype) array) : (kernel, string) result =
  try
    let nslots = Array.length tpl.t_slots in
    if Array.length args <> nslots then
      fail "argument count %d <> slot count %d" (Array.length args) nslots;
    Array.iteri
      (fun i (_, dt) ->
        if not (Tensor.is_float_dtype dt) then
          fail "slot %d is %s: integer element semantics stay on the reference path"
            i (Tensor.dtype_name dt))
      args;
    (* When every slot is f32 (and no member widens via Cast f64), the
       op-by-op reference materializes an f32 tensor at every member
       boundary — each store rounds.  The fused kernel must reproduce
       those rounding points exactly or the bit-exactness contract with
       the reference breaks; each value-producing node therefore rounds
       its own output below.  Mixed/f64 groups keep full-precision
       intermediates and round only at the terminal store. *)
    let all_f32 =
      Array.for_all (fun (_, dt) -> dt = Tensor.F32) args
      && not
           (List.exists
              (fun nd -> nd.Graph.op = Op.Cast Tensor.F64)
              tpl.t_members)
    in
    let dims_tbl : (Graph.tensor_id, int array) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i tid -> Hashtbl.replace dims_tbl tid (Array.of_list (fst args.(i))))
      tpl.t_slots;
    (* Concrete shape inference over the members, mirroring what the
       executor's dry pass computes — Shape_fn is the single source of
       truth for output extents. *)
    let shape_of tid =
      match Hashtbl.find_opt dims_tbl tid with
      | Some d -> Shape.of_ints (Array.to_list d)
      | None -> (
        match Graph.const_value g tid with
        | Some t -> Shape.of_ints (Tensor.dims t)
        | None -> fail "tensor %d has no known dims" tid)
    in
    let value_of tid =
      match Graph.const_value g tid with
      | Some t
        when Tensor.dtype t = Tensor.I64
             && Tensor.numel t <= Value_info.max_tracked_elements ->
        Value_info.of_ints (Tensor.to_int_list t)
      | _ -> Value_info.undef
    in
    List.iter
      (fun nd ->
        let io =
          {
            Shape_fn.in_shapes = Array.of_list (List.map shape_of nd.Graph.inputs);
            in_values = Array.of_list (List.map value_of nd.Graph.inputs);
          }
        in
        let shapes, _ = Shape_fn.forward nd.Graph.op io in
        match Shape.as_ints shapes.(0) with
        | Some d -> Hashtbl.replace dims_tbl (List.hd nd.Graph.outputs) (Array.of_list d)
        | None -> fail "member %s has a non-concrete output shape" nd.Graph.nname)
      tpl.t_members;
    let dims_of tid =
      match Hashtbl.find_opt dims_tbl tid with
      | Some d -> d
      | None -> fail "tensor %d missing from shape table" tid
    in
    let member_dims =
      List.map
        (fun nd ->
          let o = List.hd nd.Graph.outputs in
          (o, Array.to_list (dims_of o)))
        tpl.t_members
    in
    (* The terminal's kind as op-by-op execution stores it: a Cast sets
       its target, Where takes the kind of its branches, a convolution
       that of input and weight, every other member promotes its element
       inputs (f64 if any is f64). *)
    let k_dtype =
      let kinds = Hashtbl.create 16 in
      Array.iteri (fun i tid -> Hashtbl.replace kinds tid (snd args.(i))) tpl.t_slots;
      let kind tid = Option.value ~default:Tensor.F32 (Hashtbl.find_opt kinds tid) in
      let promote tids =
        if List.exists (fun t -> kind t = Tensor.F64) tids then Tensor.F64 else Tensor.F32
      in
      List.iter
        (fun (nd : Graph.node) ->
          let ins = element_inputs nd in
          let k =
            match nd.Graph.op, ins with
            | Op.Cast dt, _ -> dt
            | Op.Where, _ :: branches -> promote branches
            | (Op.Conv _ | Op.Conv1d _), x :: w :: _ -> promote [ x; w ]
            | _ -> promote ins
          in
          Hashtbl.replace kinds (List.hd nd.Graph.outputs) k)
        tpl.t_members;
      kind tpl.t_out
    in
    (* [pre_out] is the value the pooling tail pools (the terminal when
       there is none): everything up to it is one element space. *)
    let pre_out =
      match tpl.t_pool with Some p -> List.hd p.Graph.inputs | None -> tpl.t_out
    in
    let pre_dims = dims_of pre_out in
    let pre_n = numel_of pre_dims in
    let slot_idx = Hashtbl.create 8 in
    Array.iteri (fun i tid -> Hashtbl.replace slot_idx tid i) tpl.t_slots;
    let anchor_out = Option.map (fun nd -> List.hd nd.Graph.outputs) tpl.t_anchor in
    let is_member_of o (nd : Graph.node) =
      match o with Some (m : Graph.node) -> m.Graph.nid = nd.Graph.nid | None -> false
    in
    let body =
      List.filter
        (fun nd -> not (is_member_of tpl.t_anchor nd || is_member_of tpl.t_pool nd))
        tpl.t_members
    in

    (* --- closure compilation of the elementwise phase --- *)
    let infos : (Graph.tensor_id, info) Hashtbl.t = Hashtbl.create 16 in
    let apply m (mk : env -> int -> float) =
      match m with
      | Id -> mk
      | Tbl t ->
        fun env ->
          let gfn = mk env in
          fun i -> gfn (Array.unsafe_get t i)
      | Strided (od, ss) ->
        fun env ->
          let gfn = mk env in
          fun i -> gfn (strided_index od ss i)
    in
    (* Broadcast [x] into the consumer's [od] index space; a one-element
       source is hoisted to a constant per call. *)
    let with_map od (x : info) =
      if x.dims = od then x.mk
      else if numel_of x.dims = 1 then
        fun env ->
          let cst = x.mk env 0 in
          fun _ -> cst
      else apply (broadcast_map ~od ~fd:x.dims) x.mk
    in
    let info_of tid =
      match Hashtbl.find_opt infos tid with
      | Some i -> i
      | None ->
        let i =
          match Hashtbl.find_opt slot_idx tid with
          | Some si ->
            {
              dims = dims_of tid;
              mk =
                (fun env ->
                  let v = env.args.(si) in
                  let o = v.Tensor.voff in
                  (* Kind is matched once per kernel call, so the element
                     loop reads through a monomorphic bigarray access. *)
                  match v.Tensor.vbuf with
                  | Tensor.FB32 d ->
                    if o = 0 then fun i -> BA1.unsafe_get d i
                    else fun i -> BA1.unsafe_get d (o + i)
                  | Tensor.FB64 d ->
                    if o = 0 then fun i -> BA1.unsafe_get d i
                    else fun i -> BA1.unsafe_get d (o + i));
            }
          | None -> fail "tensor %d consumed before being produced" tid
        in
        Hashtbl.add infos tid i;
        i
    in
    let compile_node (nd : Graph.node) =
      let od = dims_of (List.hd nd.Graph.outputs) in
      let child i = info_of (List.nth nd.Graph.inputs i) in
      match nd.Graph.op with
      | Op.Unary u ->
        let f = Op_semantics.unary_fn u in
        let gx = with_map od (child 0) in
        {
          dims = od;
          mk =
            (fun env ->
              let a = gx env in
              if all_f32 then fun i -> Tensor.round_f32 (f (a i)) else fun i -> f (a i));
        }
      | Op.Binary b ->
        let f = Op_semantics.float_binary_fn b in
        let gx = with_map od (child 0) and gy = with_map od (child 1) in
        {
          dims = od;
          mk =
            (fun env ->
              let a = gx env and b' = gy env in
              if all_f32 then fun i -> Tensor.round_f32 (f (a i) (b' i))
              else fun i -> f (a i) (b' i));
        }
      | Op.Clip (lo, hi) ->
        let gx = with_map od (child 0) in
        {
          dims = od;
          mk =
            (fun env ->
              let a = gx env in
              if all_f32 then fun i -> Tensor.round_f32 (Float.min hi (Float.max lo (a i)))
              else fun i -> Float.min hi (Float.max lo (a i)));
        }
      | Op.Cast Tensor.F32 ->
        (* Not the identity it once was: intermediates travel in double
           precision, so an explicit f32 cast must round here, exactly as
           the reference materializes an f32 tensor at this point. *)
        let gx = with_map od (child 0) in
        { dims = od; mk = (fun env -> let a = gx env in fun i -> Tensor.round_f32 (a i)) }
      | Op.Cast Tensor.F64 ->
        (* Intermediates are already f64: identity. *)
        { (child 0) with dims = od }
      | Op.Where ->
        let gc = with_map od (child 0) and gx = with_map od (child 1)
        and gy = with_map od (child 2) in
        {
          dims = od;
          mk =
            (fun env ->
              let cc = gc env and a = gx env and b' = gy env in
              (* Mirrors the reference: condition is cast to I64
                 (saturating), then tested against zero. *)
              fun i -> if Tensor.saturating_int_of_float (cc i) <> 0 then a i else b' i);
        }
      | Op.Transpose perm ->
        let x = child 0 in
        { dims = od; mk = apply (transpose_map ~od ~ind:x.dims ~perm) x.mk }
      | Op.Reshape | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _ ->
        (* Views: flat order is preserved, only dims change. *)
        { (info_of (List.hd (element_inputs nd))) with dims = od }
      | Op.BatchNorm { eps } ->
        if Array.length od < 2 then fail "BatchNorm input rank < 2";
        let cdim = od.(1) in
        let param i =
          let p = child i in
          if numel_of p.dims <> cdim then
            fail "BatchNorm parameter %d has %d elements for %d channels" i
              (numel_of p.dims) cdim;
          p
        in
        let ps = param 1 and pb = param 2 and pm = param 3 and pv = param 4 in
        let sp = numel_of (Array.sub od 2 (Array.length od - 2)) in
        let gx = with_map od (child 0) in
        {
          dims = od;
          mk =
            (fun env ->
              let a = gx env in
              (* Per-channel constants hoisted out of the element loop;
                 sqrt(var + eps) is deterministic per channel, so this
                 matches the reference's per-element evaluation exactly. *)
              let hoist (p : info) = Array.init cdim (p.mk env) in
              let s = hoist ps and b' = hoist pb and m = hoist pm in
              let gv = pv.mk env in
              let sq = Array.init cdim (fun c -> sqrt (gv c +. eps)) in
              let r = if all_f32 then Tensor.round_f32 else Fun.id in
              (* Four rounding points under f32, mirroring the reference's
                 four stores: (x−m), /sqrt(v+eps), ×s, +b. *)
              fun i ->
                let ch = i / sp mod cdim in
                r
                  (r (r (r (a i -. Array.unsafe_get m ch) /. Array.unsafe_get sq ch)
                     *. Array.unsafe_get s ch)
                  +. Array.unsafe_get b' ch));
        }
      | op -> fail "operator %s is not elementwise-compilable" (Op.name op)
    in
    (* The elementwise phase over [pre_out]; an anchor's result is read
       from [env.acc]. *)
    let elementwise () =
      Hashtbl.reset infos;
      Option.iter
        (fun tid ->
          Hashtbl.add infos tid
            {
              dims = dims_of tid;
              mk =
                (fun env ->
                  match env.acc with
                  | Tensor.FB64 a -> fun i -> BA1.unsafe_get a i
                  | Tensor.FB32 a -> fun i -> BA1.unsafe_get a i);
            })
        anchor_out;
      List.iter (fun nd -> Hashtbl.add infos (List.hd nd.Graph.outputs) (compile_node nd)) body;
      info_of pre_out
    in

    (* --- the pooling tail --- *)
    let pool_into =
      match tpl.t_pool with
      | None -> None
      | Some p ->
        let rank = Array.length pre_dims in
        let pool2d kind { Op.kernel; pool_stride; pool_pads } v ~c ~co =
          ignore (Linalg.pool2d_into ~kind ~kernel ~stride:pool_stride ~pad:pool_pads v ~c ~co)
        in
        (match p.Graph.op with
        | Op.MaxPool attrs when rank = 4 -> Some (pool2d `Max attrs)
        | Op.AveragePool attrs when rank = 4 -> Some (pool2d `Avg attrs)
        | Op.GlobalAveragePool when rank >= 3 ->
          Some (fun v ~c ~co -> ignore (Linalg.global_avg_pool_into v ~c ~co))
        | op -> fail "%s tail on a rank-%d value" (Op.name op) rank)
    in
    let term_dims_l = Array.to_list (dims_of tpl.t_out) in
    (* [pre ~par args ~c ~co] writes the pre-pool value into [c] at [co]. *)
    let mk_kernel ~two_phase pre =
      let k_run_into =
        match pool_into with
        | None -> pre
        | Some pool ->
          fun ~par args ~c ~co ->
            let s = pool_scratch_for (Tensor.fbuf_dtype c) pre_n in
            pre ~par args ~c:s ~co:0;
            pool { Tensor.vbuf = s; voff = 0; vdims = Array.to_list pre_dims } ~c ~co
      in
      let k_run ~par targs =
        let out = Tensor.zeros k_dtype term_dims_l in
        k_run_into ~par (Array.map Tensor.view_f targs) ~c:(Tensor.storage_f out) ~co:0;
        out
      in
      {
        k_out = tpl.t_out;
        k_dims = member_dims;
        k_run;
        k_run_into;
        k_dtype;
        k_two_phase = two_phase;
      }
    in
    match tpl.t_anchor with
    | None ->
      let root = elementwise () in
      Ok
        (mk_kernel ~two_phase:false (fun ~par args ~c ~co ->
             fill_into par c ~off:co ~n:pre_n (root.mk { args; acc = no_acc })))
    | Some anc ->
      let aout = Option.get anchor_out in
      let adims = dims_of aout in
      let in_dims = List.map (fun tid -> Array.to_list (dims_of tid)) anc.Graph.inputs in
      let m, n, k =
        match
          Multi_version.gemm_dims_of_op anc.Graph.op ~in_dims
            ~out_dims:[ Array.to_list adims ]
        with
        | Some mnk -> mnk
        | None -> fail "anchor %s has no GEMM extents" anc.Graph.nname
      in
      let cls = Multi_version.classify_gemm ~m ~n ~k in
      let tl = tiles cls in
      let slot tid =
        match Hashtbl.find_opt slot_idx tid with
        | Some i -> i
        | None -> fail "anchor input %d is not an external slot" tid
      in
      let anchor_slots = List.map slot anc.Graph.inputs in

      (* --- lowering the chain to a write-back program --- *)
      let lower () =
        let roles = Hashtbl.create 16 in
        Array.iteri (fun i tid -> Hashtbl.replace roles tid (Operand (i, dims_of tid))) tpl.t_slots;
        Hashtbl.replace roles aout Chain;
        let role tid = Option.value ~default:Opaque (Hashtbl.find_opt roles tid) in
        let current = ref aout in
        (* steps in reverse, each made per call from the call's views *)
        let steps = ref [] in
        let emit f = steps := f :: !steps in
        let emit_round () = if all_f32 then emit (fun _ -> Blocked.Round_f32) in
        let binary op x chain_left = Blocked.Binary { op; x; chain_left } in
        let slot_operand si ~odiv ~olen (args : Tensor.view array) =
          let v = args.(si) in
          { Blocked.obuf = v.Tensor.vbuf; ooff = v.Tensor.voff; odiv; olen }
        in
        (* Values computed per call (a scaled Gemm C, BatchNorm's
           per-channel square roots) go through a small f64 buffer. *)
        let computed_operand ~odiv ~olen f =
          let b = Tensor.fbuf_create Tensor.F64 olen in
          for j = 0 to olen - 1 do
            Tensor.fbuf_set b j (f j)
          done;
          { Blocked.obuf = b; ooff = 0; odiv; olen }
        in
        let operand_step op (si, fd) od ~chain_left =
          match operand_addr ~od ~fd with
          | None -> raise No_lowering
          | Some (odiv, olen) ->
            emit (fun args -> binary op (slot_operand si ~odiv ~olen args) chain_left)
        in
        (* The anchor's value as the reference stores it, then a Gemm's
           post-ops in the reference's order and with its stores:
           [v *. alpha], then [+. beta *. c]. *)
        emit_round ();
        (match anc.Graph.op, anchor_slots with
        | Op.Gemm { alpha; beta; _ }, _ :: _ :: rest ->
          if alpha <> 1.0 then begin
            let a = computed_operand ~odiv:1 ~olen:1 (fun _ -> alpha) in
            emit (fun _ -> binary Blocked.Mul a true);
            emit_round ()
          end;
          (match rest with
          | [ ic ] -> (
            match operand_addr ~od:adims ~fd:(dims_of (List.nth anc.Graph.inputs 2)) with
            | None -> raise No_lowering
            | Some (odiv, olen) ->
              emit (fun args ->
                  if beta = 1.0 then binary Blocked.Add (slot_operand ic ~odiv ~olen args) true
                  else
                    let v = args.(ic) in
                    binary Blocked.Add
                      (computed_operand ~odiv ~olen (fun j ->
                           beta *. Tensor.fbuf_get v.Tensor.vbuf (v.Tensor.voff + j)))
                      true);
              emit_round ())
          | _ -> ())
        | _ -> ());
        List.iter
          (fun (nd : Graph.node) ->
            let out = List.hd nd.Graph.outputs in
            let od = dims_of out in
            let ins = element_inputs nd in
            let rs = List.map role ins in
            List.iter
              (fun tid -> if role tid = Chain && tid <> !current then raise No_lowering)
              ins;
            (* the chain value lands on [od] without reordering *)
            let ident tid = broadcast_map ~od ~fd:(dims_of tid) = Id in
            let r =
              match List.length (List.filter (fun r -> r = Chain) rs) with
              | 0 -> (
                match nd.Graph.op, ins, rs with
                | ( (Op.Reshape | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _),
                    _,
                    Operand (si, _) :: _ ) ->
                  Operand (si, od)
                | Op.Transpose perm, [ x ], [ Operand (si, _) ]
                  when transpose_map ~od ~ind:(dims_of x) ~perm = Id ->
                  Operand (si, od)
                | _ -> Opaque)
              | 1 ->
                (match nd.Graph.op, ins, rs with
                | (Op.Reshape | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _), _, _ -> ()
                | Op.Transpose perm, [ x ], _ ->
                  if transpose_map ~od ~ind:(dims_of x) ~perm <> Id then raise No_lowering
                | Op.Unary u, [ x ], _ -> (
                  match blocked_unary u with
                  | Some bu when ident x ->
                    emit (fun _ -> Blocked.Unary bu);
                    emit_round ()
                  | _ -> raise No_lowering)
                | Op.Clip (lo, hi), [ x ], _ ->
                  if not (ident x) then raise No_lowering;
                  emit (fun _ -> Blocked.Unary (Blocked.Clip (lo, hi)));
                  emit_round ()
                | Op.Binary b, [ x; y ], [ rx; ry ] ->
                  let op = match blocked_binop b with Some op -> op | None -> raise No_lowering in
                  (match rx, ry with
                  | Chain, Operand (si, fd) when ident x ->
                    operand_step op (si, fd) od ~chain_left:true
                  | Operand (si, fd), Chain when ident y ->
                    operand_step op (si, fd) od ~chain_left:false
                  | _ -> raise No_lowering);
                  emit_round ()
                | Op.BatchNorm { eps }, x :: _, Chain :: prs when ident x && Array.length od >= 2 ->
                  let cdim = od.(1) in
                  let odiv = numel_of (Array.sub od 2 (Array.length od - 2)) in
                  let param = function
                    | Operand (si, fd) when numel_of fd = cdim -> si
                    | _ -> raise No_lowering
                  in
                  (match List.map param prs with
                  | [ ps; pb; pm; pv ] ->
                    let chan op si =
                      emit (fun args -> binary op (slot_operand si ~odiv ~olen:cdim args) true)
                    in
                    chan Blocked.Sub pm;
                    emit_round ();
                    emit (fun args ->
                        let v = args.(pv) in
                        binary Blocked.Div
                          (computed_operand ~odiv ~olen:cdim (fun c ->
                               sqrt (Tensor.fbuf_get v.Tensor.vbuf (v.Tensor.voff + c) +. eps)))
                          true);
                    emit_round ();
                    chan Blocked.Mul ps;
                    emit_round ();
                    chan Blocked.Add pb;
                    emit_round ()
                  | _ -> raise No_lowering)
                | _ -> raise No_lowering);
                current := out;
                Chain
              | _ -> raise No_lowering
            in
            Hashtbl.replace roles out r)
          body;
        if !current <> pre_out then raise No_lowering;
        if List.length !steps > Blocked.max_steps then raise No_lowering;
        let makers = List.rev !steps in
        fun args -> List.map (fun f -> f args) makers
      in
      let blocked_inner par ep ep_off ~m ~n ~k ~a ~ao ~b ~bo ~c ~co =
        Blocked.gemm ~par ~tiles:tl ~epilogue:ep ~ep_off ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()
      in
      (* [run_anchor_into ~par ~ep args ~c ~co] executes the heavy op into
         [c] at element offset [co].  [Some ep]: the blocked kernels with
         the write-back program, whose indices are output-relative (the
         tile subtracts [co]).  [None]: the plain anchor result, through
         the naive kernels for Tiny problems exactly like the per-op
         backend. *)
      let naive = cls = Multi_version.Tiny in
      let run_anchor_into =
        match anc.Graph.op, anchor_slots with
        | Op.MatMul, [ ia; ib ] ->
          fun ~par ~ep (args : Tensor.view array) ~c ~co ->
            let inner =
              match ep with
              | Some ep -> Some (blocked_inner par ep co)
              | None -> if naive then None else Some (blocked_inner par [] co)
            in
            ignore (Linalg.matmul_into ?inner args.(ia) args.(ib) ~c ~co)
        | Op.Gemm { alpha; beta; trans_a; trans_b }, ia :: ib :: rest ->
          let ic = match rest with [ i ] -> Some i | _ -> None in
          fun ~par ~ep args ~c ~co ->
            let a = args.(ia) and b = args.(ib) in
            (match ep with
            | Some ep ->
              (* alpha and beta·C are steps of [ep]: the bare product here *)
              ignore
                (Linalg.gemm_into ~inner:(blocked_inner par ep co) ~alpha:1.0 ~beta:1.0
                   ~trans_a ~trans_b a b None ~c ~co)
            | None ->
              let cv = Option.map (fun i -> args.(i)) ic in
              let inner = if naive then None else Some (blocked_inner par [] co) in
              ignore (Linalg.gemm_into ?inner ~alpha ~beta ~trans_a ~trans_b a b cv ~c ~co))
        | Op.Conv { stride; pads; dilation; groups }, ia :: ib :: rest ->
          let ibias = match rest with [ i ] -> Some i | _ -> None in
          fun ~par ~ep args ~c ~co ->
            let x = args.(ia) and w = args.(ib) in
            let b = Option.map (fun i -> args.(i)) ibias in
            if ep = None && naive then
              ignore (Linalg.conv2d_into ~stride ~pad:pads ~dilation ~groups x w b ~c ~co)
            else
              ignore
                (Blocked.conv2d_im2col_into ~par ~tiles:tl ?epilogue:ep ~ep_off:co ~stride
                   ~pad:pads ~dilation ~groups x w b ~c ~co)
        | Op.Conv1d { stride1; pads1; dilation1; groups1 }, ia :: ib :: rest ->
          let ibias = match rest with [ i ] -> Some i | _ -> None in
          (match in_dims with
          | [ _; _; _ ] :: ([ _; _; _ ] :: _) -> ()
          | _ -> fail "Conv1d anchor expects 3-d operands");
          fun ~par ~ep args ~c ~co ->
            let x = args.(ia) and w = args.(ib) in
            let b = Option.map (fun i -> args.(i)) ibias in
            (* Unit-height lowering onto conv2d; the 4-d [n;m;1;ol] output
               is flat-identical to the 3-d result, so epilogue indices
               carry over. *)
            (match x.Tensor.vdims, w.Tensor.vdims with
            | [ nn; cch; l ], [ mm; cg; kk ] ->
              let x' = Tensor.view_reshape x [ nn; cch; 1; l ] in
              let w' = Tensor.view_reshape w [ mm; cg; 1; kk ] in
              let pl, pr = pads1 in
              let stride = 1, stride1 and pad = 0, pl, 0, pr and dilation = 1, dilation1 in
              if ep = None && naive then
                ignore (Linalg.conv2d_into ~stride ~pad ~dilation ~groups:groups1 x' w' b ~c ~co)
              else
                ignore
                  (Blocked.conv2d_im2col_into ~par ~tiles:tl ?epilogue:ep ~ep_off:co ~stride
                     ~pad ~dilation ~groups:groups1 x' w' b ~c ~co)
            | _ -> assert false)
        | op, _ -> fail "unsupported anchor %s" (Op.name op)
      in
      let program =
        if m > 0 && n > 0 && k > 0 && pre_n = numel_of adims then
          try Some (lower ()) with No_lowering -> None
        else None
      in
      (match program with
      | Some program ->
        Ok
          (mk_kernel ~two_phase:false (fun ~par args ~c ~co ->
               run_anchor_into ~par ~ep:(Some (program args)) args ~c ~co))
      | None ->
        let root = elementwise () in
        Ok
          (mk_kernel ~two_phase:true (fun ~par args ~c ~co ->
               (* The anchor result in the kind the reference stores it:
                  f32 stores round the product (and a Gemm's alpha and
                  beta·C steps) where op-by-op execution does; f64 keeps
                  full precision for the elementwise phase. *)
               let kind = if all_f32 then Tensor.F32 else Tensor.F64 in
               let scratch = Tensor.fbuf_create kind (max 1 (numel_of adims)) in
               Tensor.fbuf_fill scratch 0 (Tensor.fbuf_len scratch) 0.0;
               run_anchor_into ~par ~ep:None args ~c:scratch ~co:0;
               fill_into par c ~off:co ~n:pre_n (root.mk { args; acc = scratch }))))
  with
  | Spec_fail msg -> Error msg
