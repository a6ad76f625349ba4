(* Fused-group kernel compilation (§4.2 fused code generation).

   [plan] runs at [Pipeline.compile] time and decides, per fusion group,
   whether the group can execute as ONE kernel instead of op-by-op through
   the interpreter.  The compile-time product is a [template]: the group's
   member nodes, its external element inputs in a fixed slot order, and the
   optional heavy anchor (MatMul/Gemm/Conv/Conv1d first member).

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
   - a heavy anchor runs through the blocked kernels with the compiled
     element function installed as {!Blocked.gemm}'s write-back [epilogue],
     so bias/BN/activation/residual chains are applied in the same pass
     that stores the tile's result.  When the epilogue path cannot legally
     see the accumulator (the chain transposes or broadcasts the anchor
     value, or the problem is Tiny), the anchor result is computed first
     and the chain runs as the elementwise phase over it;
   - the per-element closures call the exact {!Op_semantics} functions the
     reference kernels use, which keeps pure pointwise groups bit-for-bit
     equal to unfused execution.

   Specialized kernels are cached by the runtime backend per
   (group × concrete shape tuple); this module is purely functional. *)

type template = {
  t_gid : int;
  t_members : Graph.node list;  (** in topological order *)
  t_anchor : Graph.node option;  (** heavy first member, when present *)
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
}

(* ------------------------------------------------------------------ *)
(* Compile-time planning                                               *)

let is_heavy = function
  | Op.MatMul | Op.Gemm _ | Op.Conv _ | Op.Conv1d _ -> true
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

(* [acc] holds the anchor's result on the two-phase path — always an f64
   buffer, so fused intermediates keep full precision and round exactly
   once, at the terminal store. *)
type env = { args : Tensor.view array; acc : Tensor.fbuf }

let no_acc = Tensor.fbuf_create Tensor.F64 0

(* One compiled expression node: its concrete dims, whether its subtree
   reads the anchor accumulator, and a maker that — given the call's
   runtime environment — hoists whatever it can (data pointers, scalars,
   per-channel tables) and returns the per-element function.  The float
   argument threads the anchor's accumulator value through write-back
   epilogues; it is ignored everywhere else. *)
type info = {
  dims : int array;
  on_acc : bool;
  mk : env -> int -> float -> float;
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
        BA1.unsafe_set d (off + i) (gfn i 0.0)
      done
    | Tensor.FB64 d ->
      for i = lo to hi do
        BA1.unsafe_set d (off + i) (gfn i 0.0)
      done
  in
  if n >= 2 * grain then
    par.Blocked.run
      ((n + grain - 1) / grain)
      (fun ci ->
        let lo = ci * grain in
        body lo (min n (lo + grain) - 1))
  else body 0 (n - 1)

let specialize g (tpl : template) ~(tiles : Multi_version.shape_class -> Blocked.tiles)
    ~(args : (int list * Tensor.dtype) array) : (kernel, string) result =
  try
    let nslots = Array.length tpl.t_slots in
    if Array.length args <> nslots then fail "argument count %d <> slot count %d" (Array.length args) nslots;
    Array.iteri
      (fun i (_, dt) ->
        if not (Tensor.is_float_dtype dt) then
          fail "slot %d is %s: integer element semantics stay on the reference path"
            i (Tensor.dtype_name dt))
      args;
    (* When every slot is f32 (and no member widens via Cast f64), the
       op-by-op reference materializes an f32 tensor at every member
       boundary — each store rounds.  The fused closures must reproduce
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
    let term_dims = dims_of tpl.t_out in
    let member_dims =
      List.map
        (fun nd ->
          let o = List.hd nd.Graph.outputs in
          (o, Array.to_list (dims_of o)))
        tpl.t_members
    in
    let slot_idx = Hashtbl.create 8 in
    Array.iteri (fun i tid -> Hashtbl.replace slot_idx tid i) tpl.t_slots;
    let anchor_out = Option.map (fun nd -> List.hd nd.Graph.outputs) tpl.t_anchor in

    (* --- closure compilation of the elementwise member tree --- *)
    let violated = ref false in
    let infos : (Graph.tensor_id, info) Hashtbl.t = Hashtbl.create 16 in
    let apply m (mk : env -> int -> float -> float) =
      match m with
      | Id -> mk
      | Tbl t ->
        fun env ->
          let gfn = mk env in
          fun i v -> gfn (Array.unsafe_get t i) v
      | Strided (od, ss) ->
        fun env ->
          let gfn = mk env in
          fun i v -> gfn (strided_index od ss i) v
    in
    (* Broadcast [x] into the consumer's [od] index space.  A non-identity
       map on an accumulator-carrying subtree means the write-back epilogue
       would see a permuted/duplicated accumulator — that disqualifies
       write-back fusion (two-phase execution handles it instead). *)
    let with_map od (x : info) =
      if x.dims = od then x.mk
      else begin
        if x.on_acc then violated := true;
        if numel_of x.dims = 1 && not x.on_acc then
          fun env ->
            let gfn = x.mk env in
            let cst = gfn 0 0.0 in
            fun _ _ -> cst
        else apply (broadcast_map ~od ~fd:x.dims) x.mk
      end
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
              on_acc = false;
              mk =
                (fun env ->
                  let v = env.args.(si) in
                  let o = v.Tensor.voff in
                  (* Kind is matched once per kernel call, so the element
                     loop reads through a monomorphic bigarray access. *)
                  match v.Tensor.vbuf with
                  | Tensor.FB32 d ->
                    if o = 0 then fun i _ -> BA1.unsafe_get d i
                    else fun i _ -> BA1.unsafe_get d (o + i)
                  | Tensor.FB64 d ->
                    if o = 0 then fun i _ -> BA1.unsafe_get d i
                    else fun i _ -> BA1.unsafe_get d (o + i));
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
        let x = child 0 in
        let f = Op_semantics.unary_fn u in
        let gx = with_map od x in
        {
          dims = od;
          on_acc = x.on_acc;
          mk =
            (fun env ->
              let a = gx env in
              if all_f32 then fun i v -> Tensor.round_f32 (f (a i v))
              else fun i v -> f (a i v));
        }
      | Op.Binary b ->
        let x = child 0 and y = child 1 in
        let f = Op_semantics.float_binary_fn b in
        let gx = with_map od x and gy = with_map od y in
        {
          dims = od;
          on_acc = x.on_acc || y.on_acc;
          mk =
            (fun env ->
              let a = gx env and b' = gy env in
              if all_f32 then fun i v -> Tensor.round_f32 (f (a i v) (b' i v))
              else fun i v -> f (a i v) (b' i v));
        }
      | Op.Clip (lo, hi) ->
        let x = child 0 in
        let gx = with_map od x in
        {
          dims = od;
          on_acc = x.on_acc;
          mk =
            (fun env ->
              let a = gx env in
              if all_f32 then
                fun i v -> Tensor.round_f32 (Float.min hi (Float.max lo (a i v)))
              else fun i v -> Float.min hi (Float.max lo (a i v)));
        }
      | Op.Cast Tensor.F32 ->
        (* Not the identity it once was: intermediates travel in double
           precision, so an explicit f32 cast must round here, exactly as
           the reference materializes an f32 tensor at this point. *)
        let x = child 0 in
        let gx = with_map od x in
        {
          dims = od;
          on_acc = x.on_acc;
          mk =
            (fun env ->
              let a = gx env in
              fun i v -> Tensor.round_f32 (a i v));
        }
      | Op.Cast Tensor.F64 ->
        (* Intermediates are already f64: identity. *)
        let x = child 0 in
        { x with dims = od }
      | Op.Where ->
        let c = child 0 and x = child 1 and y = child 2 in
        let gc = with_map od c and gx = with_map od x and gy = with_map od y in
        {
          dims = od;
          on_acc = c.on_acc || x.on_acc || y.on_acc;
          mk =
            (fun env ->
              let cc = gc env and a = gx env and b' = gy env in
              (* Mirrors the reference: condition is cast to I64
                 (saturating), then tested against zero. *)
              fun i v ->
                if Tensor.saturating_int_of_float (cc i v) <> 0 then a i v
                else b' i v);
        }
      | Op.Transpose perm ->
        let x = child 0 in
        let m = transpose_map ~od ~ind:x.dims ~perm in
        if m <> Id && x.on_acc then violated := true;
        { dims = od; on_acc = x.on_acc; mk = apply m x.mk }
      | Op.Reshape | Op.Flatten _ | Op.Squeeze _ | Op.Unsqueeze _ ->
        (* Views: flat order is preserved, only dims change. *)
        let x = info_of (List.hd (element_inputs nd)) in
        { x with dims = od }
      | Op.BatchNorm { eps } ->
        let x = child 0 in
        if Array.length od < 2 then fail "BatchNorm input rank < 2";
        let cdim = od.(1) in
        let param i =
          let p = child i in
          if numel_of p.dims <> cdim then
            fail "BatchNorm parameter %d has %d elements for %d channels" i
              (numel_of p.dims) cdim;
          if p.on_acc then violated := true;
          p
        in
        let ps = param 1 and pb = param 2 and pm = param 3 and pv = param 4 in
        let sp = ref 1 in
        for d = 2 to Array.length od - 1 do
          sp := !sp * od.(d)
        done;
        let sp = !sp in
        let gx = with_map od x in
        {
          dims = od;
          on_acc = x.on_acc;
          mk =
            (fun env ->
              let a = gx env in
              (* Per-channel constants hoisted out of the element loop;
                 sqrt(var + eps) is deterministic per channel, so this
                 matches the reference's per-element evaluation exactly. *)
              let hoist (p : info) =
                let gfn = p.mk env in
                Array.init cdim (fun c -> gfn c 0.0)
              in
              let s = hoist ps and b' = hoist pb and m = hoist pm in
              let gv = pv.mk env in
              let sq = Array.init cdim (fun c -> sqrt (gv c 0.0 +. eps)) in
              if all_f32 then
                (* Four rounding points, mirroring the reference's four
                   map2 stores: (x−m), /sqrt(v+eps), ×s, +b. *)
                fun i v ->
                  let ch = i / sp mod cdim in
                  let r = Tensor.round_f32 in
                  r
                    (r
                       (r (r (a i v -. Array.unsafe_get m ch)
                          /. Array.unsafe_get sq ch)
                       *. Array.unsafe_get s ch)
                    +. Array.unsafe_get b' ch)
              else
                fun i v ->
                  let ch = i / sp mod cdim in
                  ((a i v -. Array.unsafe_get m ch) /. Array.unsafe_get sq ch
                  *. Array.unsafe_get s ch)
                  +. Array.unsafe_get b' ch);
        }
      | op -> fail "operator %s is not elementwise-compilable" (Op.name op)
    in
    let build ~wb =
      Hashtbl.reset infos;
      violated := false;
      (match anchor_out with
      | Some tid ->
        let adims = dims_of tid in
        (* The anchor hands the epilogue its full-precision f64
           accumulator (in-register for write-back, via the scratch buffer
           for two-phase).  The reference would have stored it to an f32
           tensor first, so an all-f32 group rounds it at the leaf. *)
        let leaf =
          if wb then
            {
              dims = adims;
              on_acc = true;
              mk =
                (if all_f32 then fun _ _ v -> Tensor.round_f32 v
                 else fun _ _ v -> v);
            }
          else
            {
              dims = adims;
              on_acc = true;
              mk =
                (fun env ->
                  match env.acc with
                  | Tensor.FB64 a ->
                    if all_f32 then
                      fun i _ -> Tensor.round_f32 (BA1.unsafe_get a i)
                    else fun i _ -> BA1.unsafe_get a i
                  | Tensor.FB32 a -> fun i _ -> BA1.unsafe_get a i);
            }
        in
        Hashtbl.add infos tid leaf
      | None -> ());
      List.iter
        (fun nd ->
          if not (match tpl.t_anchor with Some a -> a.Graph.nid = nd.Graph.nid | None -> false)
          then Hashtbl.add infos (List.hd nd.Graph.outputs) (compile_node nd))
        tpl.t_members;
      (Hashtbl.find infos tpl.t_out, not !violated)
    in

    let term_dims_l = Array.to_list term_dims in
    let mk_kernel k_run_into =
      let k_run ~par targs =
        let odt =
          if Array.exists (fun t -> Tensor.dtype t = Tensor.F64) targs then
            Tensor.F64
          else Tensor.F32
        in
        let out = Tensor.zeros odt term_dims_l in
        k_run_into ~par (Array.map Tensor.view_f targs) ~c:(Tensor.storage_f out)
          ~co:0;
        out
      in
      { k_out = tpl.t_out; k_dims = member_dims; k_run; k_run_into }
    in
    match tpl.t_anchor with
    | None ->
      let root, _ = build ~wb:false in
      let n_out = numel_of term_dims in
      let k_run_into ~par (args : Tensor.view array) ~c ~co =
        let gfn = root.mk { args; acc = no_acc } in
        fill_into par c ~off:co ~n:n_out gfn
      in
      Ok (mk_kernel k_run_into)
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
      let blocked_inner par epilogue ep_off ~m ~n ~k ~a ~ao ~b ~bo ~c ~co =
        Blocked.gemm ~par ~tiles:tl ?epilogue ~ep_off ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()
      in
      (* [run_anchor_into ~par ~ep args ~c ~co] executes the heavy op with
         the blocked kernels (naive for Tiny problems, exactly like the
         per-op backend), writing the result into [c] at element offset
         [co]; [ep], when present, fires once per output element at
         write-back with output-relative flat indices (the write-back
         subtracts [co] inline, so arena destinations cost no shim). *)
      let run_anchor_into =
        match anc.Graph.op, anchor_slots with
        | Op.MatMul, [ ia; ib ] ->
          fun ~par ~ep (args : Tensor.view array) ~c ~co ->
            if cls = Multi_version.Tiny then
              ignore (Linalg.matmul_into args.(ia) args.(ib) ~c ~co)
            else
              ignore
                (Linalg.matmul_into ~inner:(blocked_inner par ep co) args.(ia)
                   args.(ib) ~c ~co)
        | Op.Gemm { alpha; beta; trans_a; trans_b }, ia :: ib :: rest ->
          let ic = match rest with [ i ] -> Some i | _ -> None in
          fun ~par ~ep args ~c ~co ->
            let a = args.(ia) and b = args.(ib) in
            let cv = Option.map (fun i -> args.(i)) ic in
            if cls = Multi_version.Tiny then
              ignore (Linalg.gemm_into ~alpha ~beta ~trans_a ~trans_b a b cv ~c ~co)
            else (
              match ep with
              | None ->
                ignore
                  (Linalg.gemm_into ~inner:(blocked_inner par None co) ~alpha ~beta
                     ~trans_a ~trans_b a b cv ~c ~co)
              | Some ep ->
                (* Fold the Gemm post-ops (alpha scale, beta·C add) into
                   the epilogue in the reference's evaluation order, then
                   run the bare product.  [ep] and the C-operand broadcast
                   both use output-relative indices. *)
                let ep' =
                  match cv with
                  | None ->
                    if alpha = 1.0 then ep else fun ci v -> ep ci (v *. alpha)
                  | Some ct ->
                    let cdo = ct.Tensor.voff in
                    let cget =
                      match ct.Tensor.vbuf with
                      | Tensor.FB32 d -> fun i -> BA1.unsafe_get d i
                      | Tensor.FB64 d -> fun i -> BA1.unsafe_get d i
                    in
                    let get =
                      match
                        broadcast_map ~od:adims ~fd:(Array.of_list ct.Tensor.vdims)
                      with
                      | Id -> fun i -> cget (cdo + i)
                      | Tbl t -> fun i -> cget (cdo + Array.unsafe_get t i)
                      | Strided (od, ss) -> fun i -> cget (cdo + strided_index od ss i)
                    in
                    let scale v = if alpha = 1.0 then v else v *. alpha in
                    fun ci v -> ep ci (scale v +. (beta *. get ci))
                in
                ignore
                  (Linalg.gemm_into
                     ~inner:(blocked_inner par (Some ep') co)
                     ~alpha:1.0 ~beta:1.0 ~trans_a ~trans_b a b None ~c ~co))
        | Op.Conv { stride; pads; dilation; groups }, ia :: ib :: rest ->
          let ibias = match rest with [ i ] -> Some i | _ -> None in
          fun ~par ~ep args ~c ~co ->
            let x = args.(ia) and w = args.(ib) in
            let b = Option.map (fun i -> args.(i)) ibias in
            if cls = Multi_version.Tiny then
              ignore (Linalg.conv2d_into ~stride ~pad:pads ~dilation ~groups x w b ~c ~co)
            else
              ignore
                (Blocked.conv2d_im2col_into ~par ~tiles:tl ?epilogue:ep ~ep_off:co
                   ~stride ~pad:pads ~dilation ~groups x w b ~c ~co)
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
              if cls = Multi_version.Tiny then
                ignore
                  (Linalg.conv2d_into ~stride:(1, stride1) ~pad:(0, pl, 0, pr)
                     ~dilation:(1, dilation1) ~groups:groups1 x' w' b ~c ~co)
              else
                ignore
                  (Blocked.conv2d_im2col_into ~par ~tiles:tl ?epilogue:ep
                     ~ep_off:co ~stride:(1, stride1) ~pad:(0, pl, 0, pr)
                     ~dilation:(1, dilation1) ~groups:groups1 x' w' b ~c ~co)
            | _ -> assert false)
        | op, _ -> fail "unsupported anchor %s" (Op.name op)
      in
      let wb_feasible =
        cls <> Multi_version.Tiny && m > 0 && n > 0 && k > 0
        && numel_of term_dims = numel_of adims
      in
      let root_wb, wb_clean = if wb_feasible then build ~wb:true else (build ~wb:false |> fst, false) in
      if wb_feasible && wb_clean then begin
        let k_run_into ~par args ~c ~co =
          let ep0 = root_wb.mk { args; acc = no_acc } in
          run_anchor_into ~par ~ep:(Some ep0) args ~c ~co
        in
        Ok (mk_kernel k_run_into)
      end
      else begin
        let root, _ = build ~wb:false in
        let n_out = numel_of term_dims in
        let k_run_into ~par args ~c ~co =
          (* f64 scratch keeps the anchor result at full precision for the
             elementwise phase; the terminal fill is the single rounding. *)
          let scratch = Tensor.fbuf_create Tensor.F64 (max 1 (numel_of adims)) in
          Tensor.fbuf_fill scratch 0 (Tensor.fbuf_len scratch) 0.0;
          run_anchor_into ~par ~ep:None args ~c:scratch ~co:0;
          let gfn = root.mk { args; acc = scratch } in
          fill_into par c ~off:co ~n:n_out gfn
        in
        Ok (mk_kernel k_run_into)
      end
  with
  | Spec_fail msg -> Error msg
