type mode =
  | Real
  | Dry

type control =
  | Selected_only
  | All_paths

type group_exec = {
  step : int;
  gid : int;
  ops : (Op.t * int list list * int list list) list;
  external_bytes : int;
  internal_bytes : int;
  gemm : (int * int * int) option;
}

type tensor_event = {
  te_tid : Graph.tensor_id;
  te_bytes : int;
  te_alloc : int;
  te_free : int;
}

type trace = {
  steps : group_exec list;
  events : tensor_event list;
  out_dims : (Graph.tensor_id * int list) list;
  nodes_executed : int;
  arena_bytes : int;
  arena_resident : int;
  gate_outcomes : (Graph.tensor_id * int) list;
      (** branch taken per predicate tensor, in gate order *)
}

type memory =
  | Malloc
  | Arena of { arena : Arena.t; env : Env.t }

type mem_kind =
  | Mem_malloc
  | Mem_arena

type config = {
  backend : Backend.kind;
  memory : mem_kind;
  guarded : bool;
  control : control;
  quant : bool;
  compile : Compile_opts.t;
}

let default_config =
  {
    backend = Backend.Naive;
    memory = Mem_malloc;
    guarded = false;
    control = Selected_only;
    quant = false;
    compile = Compile_opts.default;
  }

(* "<backend>[,arena][,guarded][,all-paths][,int8][,<compile token>…]" —
   the CLI's --exec syntax.  Modifiers the executor does not recognize are
   offered to [Compile_opts.parse_token], so one spec can carry both sides
   of the surface ("fused,arena,variants=8"). *)
let config_of_string s =
  match String.split_on_char ',' (String.lowercase_ascii (String.trim s)) with
  | [] | [ "" ] -> Error "empty exec spec"
  | kind :: mods -> (
    match Backend.kind_of_string kind with
    | None ->
      Error
        (Printf.sprintf "unknown backend %S (expected naive|blocked|parallel|fused)" kind)
    | Some backend ->
      List.fold_left
        (fun acc m ->
          Result.bind acc (fun cfg ->
              match String.trim m with
              | "arena" -> Ok { cfg with memory = Mem_arena }
              | "malloc" -> Ok { cfg with memory = Mem_malloc }
              | "guarded" -> Ok { cfg with guarded = true }
              | "all-paths" -> Ok { cfg with control = All_paths }
              | "int8" -> Ok { cfg with quant = true }
              | m -> (
                match Compile_opts.parse_token cfg.compile m with
                | Ok compile -> Ok { cfg with compile }
                | Error _ ->
                  Error
                    (Printf.sprintf
                       "unknown exec modifier %S (expected \
                        arena|malloc|guarded|all-paths|int8, or a compile \
                        token: f32|f64|nofuse|sym=N|variants=N|aot=VEC)" m))))
        (Ok { default_config with backend })
        mods)

let config_to_string cfg =
  String.concat ","
    (Backend.kind_name cfg.backend
     :: List.filter_map Fun.id
          [
            (if cfg.memory = Mem_arena then Some "arena" else None);
            (if cfg.guarded then Some "guarded" else None);
            (if cfg.control = All_paths then Some "all-paths" else None);
            (if cfg.quant then Some "int8" else None);
          ]
     @ Compile_opts.to_tokens cfg.compile)

(* The most conservative execution of a config: drop the suspect
   specialized backend, keep the control policy, and run guarded so plan
   trouble demotes to the reference sweep instead of raising.  Quantized
   dispatch is dropped with it — degraded mode answers in bit-exact float
   semantics.  The engine routes breaker-open plan keys and degraded-mode
   requests through this. *)
let degraded cfg =
  { cfg with backend = Backend.Naive; memory = Mem_malloc; guarded = true; quant = false }

exception Unresolved of string

exception Variant_mispredict of int * int * int
(** [(gate, assumed, got)] — a variant run's per-gate verification found
    the computed predicate disagreeing with the plan's assumed branch. *)

(* Runtime view of an instantiated memory plan: per-tensor slots (element
   offset and capacity) over one grow-only buffer, plus which tensors
   currently live in it.  Built per inference from the binding-cached
   plan; the buffer is shared and persists across inferences. *)
type arena_rt = {
  ar_buf : Tensor.fbuf;
  ar_slot : (int * int) option array;  (* tid -> (elem offset, capacity) *)
  ar_loc : bool array;  (* tid's live value is in the arena *)
  mutable ar_resident : int;  (* tensors dest-stored this inference *)
  ar_bytes : int;
  ar_env : Env.t;  (* the binding the plan was instantiated at *)
}

type state = {
  dims : int list option array;
  ivals : int list option array;
  avail : bool array;
  tensors : Tensor.t option array;
}

(* Byte size of a tensor extent.  [dtype] defaults to F32; pass the real
   dtype — a hardcoded 4-byte element here once made every F64/I64 figure
   a lie by half. *)
let bytes_of_dims ?(dtype = Tensor.F32) dims =
  Tensor.bytes_per_elem dtype * List.fold_left (fun a d -> a * max 1 d) 1 dims

let init_state (c : Pipeline.compiled) ~keep_tensors =
  let g = c.graph in
  let n = Graph.tensor_count g in
  let st =
    {
      dims = Array.make n None;
      ivals = Array.make n None;
      avail = Array.make n false;
      tensors = Array.make n None;
    }
  in
  for tid = 0 to n - 1 do
    match (Graph.tensor g tid).kind with
    | Graph.Const t ->
      st.dims.(tid) <- Some (Tensor.dims t);
      st.avail.(tid) <- true;
      if keep_tensors then st.tensors.(tid) <- Some t;
      if Tensor.dtype t = Tensor.I64 && Tensor.numel t <= Value_info.max_tracked_elements
      then st.ivals.(tid) <- Some (Tensor.to_int_list t)
    | Graph.Input _ | Graph.Activation -> ()
  done;
  st

(* Membership structures shared by both modes. *)
type ctx = {
  c : Pipeline.compiled;
  internal : (Graph.tensor_id, unit) Hashtbl.t;
  out_tids : Graph.tensor_id list;
}

let make_ctx (c : Pipeline.compiled) =
  let internal = Hashtbl.create 64 in
  Array.iter
    (fun (grp : Fusion.group) ->
      List.iter (fun tid -> Hashtbl.replace internal tid ()) grp.internal)
    c.fusion_plan.groups;
  { c; internal; out_tids = Graph.outputs c.graph }

let is_internal ctx tid = Hashtbl.mem ctx.internal tid

let switch_pred_tid (nd : Graph.node) =
  match nd.inputs with
  | [ _; pred ] -> pred
  | _ ->
    Sod2_error.fail ~op:"Switch" ~node:nd.nname Sod2_error.Arity_mismatch
      "Executor: Switch expects [data; pred]"

let combine_pred_tid (nd : Graph.node) =
  match List.rev nd.inputs with
  | pred :: _ -> pred
  | [] ->
    Sod2_error.fail ~op:"Combine" ~node:nd.nname Sod2_error.Arity_mismatch
      "Executor: Combine without inputs"

(* --- dry-mode node execution ------------------------------------- *)

let value_info_of st g tid : Value_info.t =
  match st.ivals.(tid) with
  | Some ints -> Value_info.of_ints ints
  | None -> (
    ignore g;
    if st.avail.(tid) then Lattice.Nac else Value_info.undef)

let eval_value_info (v : Value_info.t) : int list option =
  match Value_info.as_exprs v with
  | Some exprs ->
    let ints = Array.to_list exprs |> List.map (Expr.eval (fun _ -> None)) in
    if List.for_all Option.is_some ints then Some (List.map Option.get ints) else None
  | None -> None

let dry_forward ctx st (nd : Graph.node) =
  let g = ctx.c.graph in
  let in_dims = List.map (fun tid -> Option.get st.dims.(tid)) nd.inputs in
  match nd.op with
  | Op.NonZero ->
    let d = List.hd in_dims in
    let r = List.length d in
    let count = List.fold_left (fun a x -> a * max 1 x) 1 d / 2 in
    [ [ max r 1; max 1 count ] ], [ None ]
  | Op.NonMaxSuppression { max_out; _ } ->
    let n = match List.hd in_dims with n :: _ -> n | [] -> 0 in
    [ [ min max_out (max 1 (n / 4)); 3 ] ], [ None ]
  | Op.If | Op.Loop -> raise (Unresolved "If/Loop have no dry interpretation")
  | _ ->
    let io =
      {
        Shape_fn.in_shapes =
          Array.of_list (List.map (fun d -> Shape.of_ints d) in_dims);
        in_values =
          Array.of_list (List.map (fun tid -> value_info_of st g tid) nd.inputs);
      }
    in
    let out_shapes, out_values = Shape_fn.forward nd.op io in
    let dims =
      Array.to_list out_shapes
      |> List.map (fun s ->
             match Shape.as_ints s with
             | Some d -> d
             | None ->
               raise
                 (Unresolved
                    (Printf.sprintf "node %s: output shape %s not concrete" nd.nname
                       (Shape.to_string s))))
    in
    let vals = Array.to_list out_values |> List.map eval_value_info in
    dims, vals

(* --- shared driver ------------------------------------------------ *)

let run_engine ~mode ~control ~gate ?(verify = fun _ _ -> ()) ?backend ?arena
    ?(quant = false) ?variant ctx st =
  let c = ctx.c in
  let g = c.graph in
  let counter kind =
    Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name ~kind
  in
  (* Boxed tensor for [tid].  An arena-resident value is copied out on its
     first boxed use and memoized — the only intermediate-tensor copy the
     arena mode ever performs (counted, so tests can assert zero on
     dest-capable graphs). *)
  let fetch_boxed tid =
    match st.tensors.(tid) with
    | Some t -> t
    | None -> (
      match arena with
      | Some ar when ar.ar_loc.(tid) ->
        let off, _ = Option.get ar.ar_slot.(tid) in
        let dims = Option.get st.dims.(tid) in
        (* Always a copy, never a shared window: the slot's storage is
           reused by later tensors once this one's lifetime ends. *)
        let t = Tensor.copy_view (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims) in
        counter "arena-copy-out";
        st.tensors.(tid) <- Some t;
        t
      | _ -> Option.get st.tensors.(tid))
  in
  (* Kernel-facing view of [tid]'s value: its arena slot when resident
     (zero-copy), else a whole-tensor view of the boxed F32 tensor. *)
  let view_of tid =
    match arena with
    | Some ar when ar.ar_loc.(tid) ->
      let off, _ = Option.get ar.ar_slot.(tid) in
      Some (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims:(Option.get st.dims.(tid)))
    | _ -> (
      match st.tensors.(tid) with
      | Some t when Tensor.is_float_dtype (Tensor.dtype t) -> Some (Tensor.view_f t)
      | _ -> None)
  in
  (* Aliasing (Switch/Combine) must not alias an arena slot: the alias
     outlives the slot's planned lifetime.  Box the value first. *)
  let materialize_for_alias tid =
    match mode, arena with
    | Real, Some ar when ar.ar_loc.(tid) && st.tensors.(tid) = None ->
      ignore (fetch_boxed tid)
    | _ -> ()
  in
  (* Variant plans resolved the gate's routing at plan time and kept the
     source slot live across the alias's consumers (Mem_plan [?alias]),
     so the alias can point at the source's arena slot directly — no
     boxed copy out of the arena per gate.  Returns false when the value
     is not slot-resident (boxed input, malloc mode, already copied out),
     in which case the caller boxes as before. *)
  let alias_slot dst src =
    match arena, variant with
    | Some ar, Some v
      when v.Pipeline.v_alias.(dst) >= 0
           && ar.ar_loc.(src)
           && st.tensors.(src) = None ->
      ar.ar_slot.(dst) <- ar.ar_slot.(src);
      ar.ar_loc.(dst) <- true;
      true
    | _ -> false
  in
  (* Element size from the materialized tensor when there is one (Real
     mode); otherwise the compiled artifact's float dtype — the kind
     arena-resident values actually occupy — so Dry and arena traffic
     figures use the same element size the plan reserved. *)
  let tensor_bytes tid dims =
    let dtype =
      match st.tensors.(tid) with
      | Some t -> Tensor.dtype t
      | None -> c.Pipeline.fdtype
    in
    bytes_of_dims ~dtype dims
  in
  let step_of_group = Hashtbl.create 64 in
  let steps = ref [] in
  let produced = ref [] in
  (* (tid, bytes, step) *)
  let nodes_executed = ref 0 in
  let step_counter = ref 0 in
  let branch_of_pred tid =
    match mode with
    | Dry -> gate tid
    | Real -> (
      let boxed =
        match st.tensors.(tid) with
        | Some _ as t -> t
        | None -> (
          match arena with
          | Some ar when ar.ar_loc.(tid) -> Some (fetch_boxed tid)
          | _ -> None)
      in
      match boxed with
      | Some t -> (
        match Tensor.to_int_list (Tensor.cast t Tensor.I64) with
        | b :: _ -> b
        | [] ->
          Sod2_error.failf ~tensor:tid Sod2_error.Shape_mismatch
            "Executor: control-flow predicate tensor t%d is empty" tid)
      | None -> gate tid)
  in
  let gate_obs = ref [] in
  let exec_switch (nd : Graph.node) branches =
    let data = List.hd nd.inputs in
    let pred = switch_pred_tid nd in
    let b = max 0 (min (branches - 1) (branch_of_pred pred)) in
    if not (List.mem_assoc pred !gate_obs) then gate_obs := (pred, b) :: !gate_obs;
    (* Variant runs verify the plan's assumption once per gate, at the
       Switch — the only branch check left on the specialized path.  A
       disagreement aborts into the any-path fallback (predict-verify-
       fallback for data-dependent gates). *)
    (match variant with
    | Some v -> (
      match Control_region.gate_of_switch c.Pipeline.control nd.Graph.nid with
      | Some gid
        when gid < Array.length v.Pipeline.v_outcome
             && v.Pipeline.v_outcome.(gid) >= 0
             && v.Pipeline.v_outcome.(gid) <> b ->
        raise (Variant_mispredict (gid, v.Pipeline.v_outcome.(gid), b))
      | _ -> ())
    | None -> ());
    List.iteri
      (fun i tid ->
        let route = control = All_paths || i = b in
        if route then begin
          if not (alias_slot tid data) then materialize_for_alias data;
          st.dims.(tid) <- st.dims.(data);
          st.ivals.(tid) <- st.ivals.(data);
          st.tensors.(tid) <- st.tensors.(data);
          st.avail.(tid) <- true
        end)
      nd.outputs
  in
  let exec_combine (nd : Graph.node) branches =
    let pred = combine_pred_tid nd in
    let branch_tids = List.filteri (fun i _ -> i < branches) nd.inputs in
    let chosen =
      match control with
      | All_paths ->
        let b = max 0 (min (branches - 1) (branch_of_pred pred)) in
        List.nth_opt branch_tids b
      | Selected_only -> List.find_opt (fun tid -> st.avail.(tid)) branch_tids
    in
    match chosen with
    | Some src ->
      let dst = List.hd nd.outputs in
      if not (alias_slot dst src) then materialize_for_alias src;
      st.dims.(dst) <- st.dims.(src);
      st.ivals.(dst) <- st.ivals.(src);
      st.tensors.(dst) <- st.tensors.(src);
      st.avail.(dst) <- true;
      true
    | None -> false
  in
  let node_ready ~member_tids (nd : Graph.node) =
    (* Tensors produced by earlier members of the same group become
       available during group execution. *)
    let ok tid = st.avail.(tid) || List.mem tid member_tids in
    match nd.op with
    | Op.Combine { branches } ->
      ok (combine_pred_tid nd)
      && (match control with
         | Selected_only ->
           List.exists ok (List.filteri (fun i _ -> i < branches) nd.inputs)
         | All_paths -> true)
    | _ -> List.for_all ok nd.inputs
  in
  let cls_of (nd : Graph.node) =
    match backend with
    | None -> None
    | Some _ when nd.nid < Array.length ctx.c.Pipeline.kernel_classes ->
      ctx.c.Pipeline.kernel_classes.(nd.nid)
    | Some _ -> None
  in
  (* Graph outputs must outlive the arena (slots are recycled next
     inference), so their destination is a fresh boxed buffer rather than
     the slot — the kernel still reads its inputs as zero-copy slot views,
     which beats both a slot store followed by a boundary copy and a fully
     boxed run that copies every arena-resident input out first. *)
  let is_graph_out tid = List.mem tid ctx.out_tids in
  (* Destination-passing attempt: single-output node, all inputs viewable
     as float windows, and the op has a [Kernels.run_into] kernel producing
     exactly the destination's capacity.  The destination is the output's
     planned slot — no output allocation, no blit.  Graph outputs, and
     unplanned tensors (internal to a group that runs op by op) whose
     operands sit in the arena, get a fresh boxed buffer instead, sized by
     the slot or by the RDP prediction at the plan's binding: the kernel
     still reads its inputs as zero-copy slot views, which beats copying
     every arena-resident input out for the boxed kernel. *)
  let try_dest (nd : Graph.node) =
    match arena, nd.Graph.outputs with
    | Some ar, [ otid ] -> (
      (* [(Some offset, cap)] for a slot store, [(None, cap)] for a fresh
         buffer. *)
      let dest =
        match ar.ar_slot.(otid) with
        | Some (off, cap) when not (is_graph_out otid) -> Some (Some off, cap)
        | Some (_, cap) -> Some (None, cap)
        | None when List.exists (fun tid -> ar.ar_loc.(tid)) nd.Graph.inputs ->
          Option.map
            (fun dims -> None, List.fold_left ( * ) 1 dims)
            (Shape.eval ar.ar_env (Rdp.shape c.rdp otid))
        | None -> None
      in
      let rec views acc = function
        | [] -> Some (List.rev acc)
        | tid :: rest -> (
          match view_of tid with
          | Some v -> views (v :: acc) rest
          | None -> None)
      in
      match dest with
      | None -> false
      | Some (slot, cap) -> (
        match views [] nd.Graph.inputs with
        | None -> false
        | Some vs -> (
          let buf, co =
            match slot with
            | Some off -> ar.ar_buf, off
            | None ->
              let buf = Tensor.fbuf_create (Tensor.fbuf_dtype ar.ar_buf) cap in
              Tensor.fbuf_fill buf 0 cap 0.0;
              buf, 0
          in
          match Kernels.run_into ?backend ?cls:(cls_of nd) nd.Graph.op vs ~c:buf ~co ~cap with
          | None -> false
          | Some dims ->
            (match slot with
            | Some _ ->
              ar.ar_loc.(otid) <- true;
              ar.ar_resident <- ar.ar_resident + 1;
              counter "arena-dest-store"
            | None ->
              st.tensors.(otid) <- Some (Tensor.of_fbuf dims buf);
              counter "arena-out-direct");
            st.dims.(otid) <- Some dims;
            st.avail.(otid) <- true;
            true)))
    | _ -> false
  in
  (* Int8 weight-quantized dispatch (dynamic-range): a node whose constant
     weight was quantized at compile runs the packed int8 kernel with the
     dequantization epilogue folded into the write-back.  The result is
     float, so it lands in the output's arena slot when the capacity
     matches (dest-passing, same as [try_dest]) or a fresh boxed buffer
     otherwise.  The activation is fetched boxed — calibration reads every
     element anyway.  Output dims are computed up front from the operand
     dims so the slot decision precedes the kernel; any shape the
     quantized kernels cannot take falls through to the float path. *)
  let quant_dispatch (nd : Graph.node) =
    if not (quant && mode = Real) then None
    else
      match backend with
      | None -> None
      | Some be -> (
        match nd.Graph.op, nd.Graph.inputs, nd.Graph.outputs with
        | Op.MatMul, [ x; w ], [ otid ] -> (
          match Pipeline.quant_weight c w, st.dims.(x) with
          | Some qt, Some [ m; k ] -> (
            match Tensor.dims qt.Quant.q with
            | [ k'; n ] when k = k' && k > 0 ->
              Some
                ( otid,
                  [ m; n ],
                  fun ~cbuf ~co ->
                    ignore
                      (Backend.matmul_q8_into ?cls:(cls_of nd) be (fetch_boxed x) qt
                         ~c:cbuf ~co) )
            | _ -> None)
          | _ -> None)
        | Op.Conv { stride; pads; dilation; groups }, x :: w :: rest, [ otid ] -> (
          let bias = match rest with [ b ] -> Some b | _ -> None in
          match Pipeline.quant_weight c w, st.dims.(x) with
          | Some qt, Some [ n; _; h; wd ] -> (
            match Tensor.dims qt.Quant.q with
            | [ m; _; kh; kw ] -> (
              try
                let sh, sw = stride and dh, dw_ = dilation in
                let pt, pl, pb, pr = pads in
                let oh =
                  Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt
                    ~pad_end:pb ~dilation:dh
                in
                let ow =
                  Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl
                    ~pad_end:pr ~dilation:dw_
                in
                Some
                  ( otid,
                    [ n; m; oh; ow ],
                    fun ~cbuf ~co ->
                      ignore
                        (Backend.conv2d_q8_into ?cls:(cls_of nd) be ~stride ~pad:pads
                           ~dilation ~groups (fetch_boxed x) qt
                           (Option.map fetch_boxed bias) ~c:cbuf ~co) )
              with Sod2_error.Error _ | Invalid_argument _ -> None)
            | _ -> None)
          | _ -> None)
        | _ -> None)
  in
  let try_quant (nd : Graph.node) =
    match quant_dispatch nd with
    | None -> false
    | Some (otid, dims, run) ->
      let numel = List.fold_left ( * ) 1 dims in
      (match arena with
      | Some ar
        when (match ar.ar_slot.(otid) with Some (_, cap) -> cap = numel | None -> false)
             && not (is_graph_out otid) ->
        let off, _ = Option.get ar.ar_slot.(otid) in
        run ~cbuf:ar.ar_buf ~co:off;
        ar.ar_loc.(otid) <- true;
        ar.ar_resident <- ar.ar_resident + 1;
        counter "arena-dest-store"
      | _ ->
        let fdt =
          match arena with
          | Some ar -> Tensor.fbuf_dtype ar.ar_buf
          | None -> c.Pipeline.fdtype
        in
        let buf = Tensor.fbuf_create fdt numel in
        run ~cbuf:buf ~co:0;
        st.tensors.(otid) <- Some (Tensor.of_fbuf dims buf));
      st.dims.(otid) <- Some dims;
      st.avail.(otid) <- true;
      counter "quant-kernel";
      true
  in
  let exec_plain (nd : Graph.node) =
    match mode with
    | Dry ->
      let dims, vals = dry_forward ctx st nd in
      List.iteri
        (fun i tid ->
          st.dims.(tid) <- Some (List.nth dims i);
          st.ivals.(tid) <- List.nth vals i;
          st.avail.(tid) <- true)
        nd.outputs
    | Real ->
      if (not (try_quant nd)) && not (try_dest nd) then begin
        (* A planned slot left unused: the op has no destination kernel for
           these operands.  Counted per op so the arena path is checkable. *)
        (match arena, nd.outputs with
        | Some ar, [ otid ] when Option.is_some ar.ar_slot.(otid) ->
          counter ("arena-boxed:" ^ Op.name nd.op)
        | _ -> ());
        let outs =
          match nd.op, nd.inputs with
          (* Only the input's dims are read: no copy-out of an arena value. *)
          | Op.ShapeOf, [ x ] -> [ Tensor.of_int_list (Option.get st.dims.(x)) ]
          | _ -> Kernels.run ?backend ?cls:(cls_of nd) nd.op (List.map fetch_boxed nd.inputs)
        in
        List.iteri
          (fun i tid ->
            let t = List.nth outs i in
            st.tensors.(tid) <- Some t;
            st.dims.(tid) <- Some (Tensor.dims t);
            if Tensor.dtype t = Tensor.I64
               && Tensor.numel t <= Value_info.max_tracked_elements
            then st.ivals.(tid) <- Some (Tensor.to_int_list t);
            st.avail.(tid) <- true)
          nd.outputs
      end
  in
  (* A variant executes its pruned order with no per-group readiness scan:
     every surviving group is statically known to run, and branch inputs
     were resolved at compile time.  The scan counter makes "zero per-node
     branch resolution in steady state" a testable claim. *)
  let order =
    match variant with
    | Some v -> v.Pipeline.v_order
    | None -> c.exec.Exec_plan.order
  in
  let templates =
    match variant with Some v -> v.Pipeline.v_fused | None -> c.Pipeline.fused
  in
  List.iter
    (fun gid ->
      let grp = c.fusion_plan.groups.(gid) in
      let members = List.map (Graph.node g) grp.members in
      let member_tids = List.concat_map (fun (nd : Graph.node) -> nd.Graph.outputs) members in
      let ready =
        match variant with
        | Some _ -> true
        | None ->
          counter "exec-ready-scan";
          List.for_all (node_ready ~member_tids) members
      in
      (* Combine fires when its selected branch arrived even though other
         branch inputs are missing; plain nodes need everything. *)
      if ready then begin
        (* A multi-member group first offers itself to the fused backend:
           one compiled kernel, internal tensors never materialized.  Any
           refusal (no template, shape not specializable, non-fused
           backend) falls through to the op-by-op loop below. *)
        (* Arena fused path: fetch the group's slot inputs as zero-copy
           views, resolve the specialized kernel through the backend cache,
           and drive its destination entry point straight into the terminal
           output's planned slot. *)
        let run_fused_arena be ar =
          match templates.(gid) with
          | None -> false
          | Some tpl -> (
            let n = Array.length tpl.Fused_compile.t_slots in
            let vs = Array.make n None in
            Array.iteri
              (fun i tid -> vs.(i) <- view_of tid)
              tpl.Fused_compile.t_slots;
            if Array.exists Option.is_none vs then false
            else
              let va = Array.map Option.get vs in
              let shapes =
                Array.to_list
                  (Array.map (fun v -> v.Tensor.vdims, Tensor.view_dtype v) va)
              in
              match Backend.fused_kernel be ~tpl c ~gid ~args:shapes with
              | None -> false
              | Some k ->
                let out = k.Fused_compile.k_out in
                let dims = List.assoc out k.Fused_compile.k_dims in
                let numel = List.fold_left ( * ) 1 dims in
                let par = Backend.par_of be in
                (match ar.ar_slot.(out) with
                | Some (off, cap) when cap = numel && not (is_graph_out out) ->
                  k.Fused_compile.k_run_into ~par va ~c:ar.ar_buf ~co:off;
                  ar.ar_loc.(out) <- true;
                  ar.ar_resident <- ar.ar_resident + 1;
                  counter "arena-dest-store"
                | _ ->
                  let buf = Tensor.fbuf_create (Tensor.fbuf_dtype ar.ar_buf) numel in
                  Tensor.fbuf_fill buf 0 numel 0.0;
                  k.Fused_compile.k_run_into ~par va ~c:buf ~co:0;
                  st.tensors.(out) <- Some (Tensor.of_fbuf dims buf);
                  counter "arena-out-direct");
                List.iter
                  (fun (tid, d) ->
                    st.dims.(tid) <- Some d;
                    st.avail.(tid) <- true)
                  k.Fused_compile.k_dims;
                true)
        in
        let fused_done =
          match mode, backend with
          (* Quantized members never execute fused: compile withheld the
             group's template (see [Fused_compile.plan ~quantized]), and this
             runtime guard keeps the invariant even for artifacts compiled
             without [~quant] paired with a quant-enabled config. *)
          | Real, Some be
            when List.length members > 1
                 && not (quant && List.exists (Pipeline.quant_node c) members) -> (
            (match arena with Some ar -> run_fused_arena be ar | None -> false)
            ||
            match Backend.fused_run be ?tpl:templates.(gid) c ~gid ~fetch:fetch_boxed with
            | Some fr ->
              List.iter
                (fun (tid, d) ->
                  st.dims.(tid) <- Some d;
                  st.avail.(tid) <- true)
                fr.Backend.fr_dims;
              st.tensors.(fr.Backend.fr_out) <- Some fr.Backend.fr_tensor;
              true
            | None -> false)
          | _ -> false
        in
        let executed_all =
          fused_done
          || List.for_all
               (fun nd ->
                 match nd.Graph.op with
                 | Op.Switch { branches } ->
                   exec_switch nd branches;
                   true
                 | Op.Combine { branches } -> exec_combine nd branches
                 | _ ->
                   exec_plain nd;
                   true)
               members
        in
        if executed_all then begin
          let step = !step_counter in
          incr step_counter;
          Hashtbl.replace step_of_group gid step;
          nodes_executed := !nodes_executed + List.length members;
          (* Fused-group boundary guard: hand every produced extent to the
             caller's verifier (no-op unless dims cross-checking is on). *)
          List.iter
            (fun (nd : Graph.node) ->
              List.iter
                (fun tid ->
                  match st.dims.(tid) with Some d -> verify tid d | None -> ())
                nd.Graph.outputs)
            members;
          (* Record extents, traffic and events. *)
          let ops =
            List.map
              (fun (nd : Graph.node) ->
                let ind = List.map (fun tid -> Option.value ~default:[] st.dims.(tid)) nd.inputs in
                let outd =
                  List.map (fun tid -> Option.value ~default:[] st.dims.(tid)) nd.outputs
                in
                nd.op, ind, outd)
              members
          in
          let external_inputs =
            List.concat_map (fun (nd : Graph.node) -> nd.Graph.inputs) members
            |> List.sort_uniq compare
            |> List.filter (fun tid -> not (List.mem tid member_tids))
          in
          let in_bytes =
            List.fold_left
              (fun acc tid ->
                match st.dims.(tid) with
                | Some d -> acc + tensor_bytes tid d
                | None -> acc)
              0 external_inputs
          in
          let out_bytes = ref 0 and internal_bytes = ref 0 in
          List.iter
            (fun (nd : Graph.node) ->
              (* Switch outputs alias their input; they cost no memory. *)
              if not (Op.is_control_flow nd.Graph.op) then
                List.iter
                  (fun tid ->
                    match st.dims.(tid) with
                    | Some d ->
                      let b = tensor_bytes tid d in
                      if is_internal ctx tid then internal_bytes := !internal_bytes + b
                      else begin
                        out_bytes := !out_bytes + b;
                        produced := (tid, b, step) :: !produced
                      end
                    | None -> ())
                  nd.Graph.outputs)
            members;
          let gemm =
            List.find_map
              (fun (op, ind, outd) ->
                Multi_version.gemm_dims_of_op op ~in_dims:ind ~out_dims:outd)
              ops
          in
          steps :=
            {
              step;
              gid;
              ops;
              external_bytes = in_bytes + !out_bytes;
              internal_bytes = !internal_bytes;
              gemm;
            }
            :: !steps
        end
      end)
    order;
  (* Lifetime events for materialized tensors. *)
  let last_step = max 0 (!step_counter - 1) in
  let events =
    List.rev_map
      (fun (tid, bytes, alloc) ->
        let free =
          if List.mem tid ctx.out_tids then last_step
          else
            List.fold_left
              (fun acc cnid ->
                match
                  Hashtbl.find_opt step_of_group c.fusion_plan.group_of.(cnid)
                with
                | Some s -> max acc s
                | None -> acc)
              alloc
              (Graph.consumers g tid)
        in
        { te_tid = tid; te_bytes = bytes; te_alloc = alloc; te_free = free })
      !produced
  in
  let out_dims =
    List.filter_map
      (fun tid ->
        match st.dims.(tid) with Some d -> Some (tid, d) | None -> None)
      ctx.out_tids
  in
  {
    steps = List.rev !steps;
    events;
    out_dims;
    nodes_executed = !nodes_executed;
    arena_bytes = (match arena with Some ar -> ar.ar_bytes | None -> 0);
    arena_resident = (match arena with Some ar -> ar.ar_resident | None -> 0);
    gate_outcomes = List.rev !gate_obs;
  }

let run_dry ?(control = Selected_only) ?(gate = fun _ -> 0) (c : Pipeline.compiled)
    ~input_dims =
  let ctx = make_ctx c in
  let st = init_state c ~keep_tensors:false in
  List.iter
    (fun (tid, dims) ->
      st.dims.(tid) <- Some dims;
      st.avail.(tid) <- true)
    input_dims;
  List.iter
    (fun tid ->
      if not st.avail.(tid) then
        raise (Unresolved (Printf.sprintf "graph input t%d has no concrete dims" tid)))
    (Graph.inputs c.graph);
  run_engine ~mode:Dry ~control ~gate ctx st

let run_real_opts ?(control = Selected_only) ?check_env ?backend ?(memory = Malloc)
    ?(quant = false) ?outcomes (c : Pipeline.compiled) ~inputs =
  let ctx = make_ctx c in
  let attempt variant =
  let st = init_state c ~keep_tensors:true in
  List.iter
    (fun (tid, t) ->
      st.tensors.(tid) <- Some t;
      st.dims.(tid) <- Some (Tensor.dims t);
      if Tensor.dtype t = Tensor.I64 && Tensor.numel t <= Value_info.max_tracked_elements
      then st.ivals.(tid) <- Some (Tensor.to_int_list t);
      st.avail.(tid) <- true)
    inputs;
  (* Arena mode: fetch the binding's instantiated plan (cached — affine
     evaluation only after the first inference per binding) and lay its
     slots over the grow-only buffer.  Ill-formed entries are dropped to
     malloc silently; {!Guarded_exec} is the vetting path. *)
  let arena =
    match memory with
    | Malloc -> None
    | Arena { arena; env } ->
      let plan =
        match variant with
        | Some v -> Pipeline.variant_plan c v env
        | None -> Pipeline.instantiated_plan c env
      in
      (* The plan sized every slot in [fdtype] elements, so byte offsets
         divide exactly by its element size — which is also the kind the
         arena buffer is allocated in.  No 4-vs-8 mismatch is possible:
         both sides derive from the same [bytes_per_elem fdtype]. *)
      let elem = Tensor.bytes_per_elem c.Pipeline.fdtype in
      let buf =
        Arena.ensure arena c.Pipeline.fdtype
          (max 1 ((plan.Mem_plan.arena_bytes + elem - 1) / elem))
      in
      let n = Graph.tensor_count c.graph in
      let slot = Array.make n None in
      Array.iter
        (fun (a : Mem_plan.alloc) ->
          if
            a.Mem_plan.size > 0 && a.offset >= 0 && a.offset mod elem = 0
            && a.Mem_plan.size mod elem = 0
            && a.Mem_plan.elem = elem
            && a.offset + a.size <= plan.Mem_plan.arena_bytes
            && a.tid >= 0 && a.tid < n
          then slot.(a.tid) <- Some (a.offset / elem, a.size / elem))
        plan.Mem_plan.allocs;
      Some
        {
          ar_buf = buf;
          ar_slot = slot;
          ar_loc = Array.make n false;
          ar_resident = 0;
          ar_bytes = plan.Mem_plan.arena_bytes;
          ar_env = env;
        }
  in
  let verify =
    match check_env with
    | None -> fun _ _ -> ()
    | Some env ->
      fun tid dims ->
        (match Shape.eval env (Rdp.shape c.rdp tid) with
        | Some want when want <> dims ->
          Sod2_error.failf ~tensor:tid Sod2_error.Shape_mismatch
            "executed dims [%s] disagree with RDP prediction [%s]"
            (String.concat "; " (List.map string_of_int dims))
            (String.concat "; " (List.map string_of_int want))
        | _ -> ())
  in
  let trace =
    run_engine ~mode:Real ~control ~gate:(fun _ -> 0) ~verify ?backend ?arena ~quant
      ?variant ctx st
  in
  (* Model outputs must outlive the arena (its slots are overwritten by the
     next inference), so arena-resident outputs are boxed at the boundary.
     This is the one unavoidable copy of arena mode and is counted
     separately from intermediate copy-outs. *)
  let outs =
    List.filter_map
      (fun tid ->
        match st.tensors.(tid) with
        | Some t -> Some (tid, t)
        | None -> (
          match arena with
          | Some ar when ar.ar_loc.(tid) ->
            let off, _ = Option.get ar.ar_slot.(tid) in
            let dims = Option.get st.dims.(tid) in
            Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name
              ~kind:"arena-out-materialize";
            Some (tid, Tensor.copy_view (Tensor.sub_view ~buf:ar.ar_buf ~off ~dims))
          | _ -> None))
      ctx.out_tids
  in
  trace, outs
  in
  (* Variant dispatch: resolve the outcome vector to a specialized plan
     (bounded by the artifact's budget), execute it, and on a per-gate
     verification failure rerun from scratch on the any-path base plan —
     mispredicted state never leaks into the fallback. *)
  match Option.bind outcomes (fun o -> Pipeline.variant c ~outcome:o) with
  | None -> attempt None
  | Some v -> (
    let counter kind =
      Profile.Counters.record ~profile:c.Pipeline.profile.Profile.name ~kind
    in
    try
      let r = attempt (Some v) in
      counter "variant-run";
      r
    with Variant_mispredict _ ->
      counter "variant-mispredict";
      attempt None)

(* Config-driven entry point.  Explicit optional arguments always win over
   the corresponding [config] field, so the historical call sites keep
   their exact behavior; [config] only fills what the caller left unset.
   [Mem_arena] needs a symbol binding ([env]) to instantiate the plan —
   without one it degrades to [Malloc].  A non-naive [config.backend] with
   no caller-supplied instance creates a transient backend for this one
   run and shuts it down afterwards; callers with steady traffic should
   pass their own long-lived [?backend] (or use {!Engine}). *)
let run_real ?config ?env ?control ?check_env ?backend ?memory ?outcomes
    (c : Pipeline.compiled) ~inputs =
  match config with
  | None -> run_real_opts ?control ?check_env ?backend ?memory ?outcomes c ~inputs
  | Some cfg ->
    let control = Option.value control ~default:cfg.control in
    let memory =
      match memory, cfg.memory, env with
      | Some m, _, _ -> m
      | None, Mem_arena, Some env -> Arena { arena = Arena.create (); env }
      | None, (Mem_malloc | Mem_arena), _ -> Malloc
    in
    let check_env = if Option.is_some check_env then check_env
      else if cfg.guarded then env
      else None
    in
    let owned, backend =
      match backend, cfg.backend with
      | (Some _ as be), _ -> None, be
      | None, Backend.Naive -> None, None
      | None, k ->
        let be = Backend.for_compiled k c in
        Some be, Some be
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Backend.shutdown owned)
      (fun () ->
        run_real_opts ~control ?check_env ?backend ~memory ~quant:cfg.quant
          ?outcomes c ~inputs)

let peak_live_bytes trace =
  let last =
    List.fold_left (fun acc e -> max acc e.te_free) 0 trace.events
  in
  let peak = ref 0 in
  for s = 0 to last do
    let live =
      List.fold_left
        (fun acc e -> if e.te_alloc <= s && s <= e.te_free then acc + e.te_bytes else acc)
        0 trace.events
    in
    if live > !peak then peak := live
  done;
  !peak

let total_flops trace =
  List.fold_left
    (fun acc ge ->
      List.fold_left
        (fun acc (op, ind, outd) -> acc +. Cost_model.flops op ~in_dims:ind ~out_dims:outd)
        acc ge.ops)
    0.0 trace.steps
