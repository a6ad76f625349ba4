let check (g : Graph.t) : (unit, Sod2_error.t list) result =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  let n_tensors = Graph.tensor_count g in
  let n_nodes = Graph.node_count g in
  let in_range tid = tid >= 0 && tid < n_tensors in

  (* --- declared outputs ------------------------------------------- *)
  if Graph.outputs g = [] then
    add (Sod2_error.make Sod2_error.Invalid_graph "graph declares no outputs");
  List.iter
    (fun tid ->
      if not (in_range tid) then
        add
          (Sod2_error.make ~tensor:tid Sod2_error.Invalid_graph
             (Printf.sprintf "graph output references undefined tensor %d" tid)))
    (Graph.outputs g);

  (* --- tensor table ------------------------------------------------ *)
  for tid = 0 to n_tensors - 1 do
    let info = Graph.tensor g tid in
    if info.Graph.tid <> tid then
      add
        (Sod2_error.make ~tensor:tid Sod2_error.Invalid_graph
           (Printf.sprintf "tensor table entry %d carries id %d" tid info.Graph.tid));
    match info.Graph.kind, info.Graph.producer with
    | Graph.Activation, None ->
      add
        (Sod2_error.make ~tensor:tid Sod2_error.Invalid_graph
           (Printf.sprintf "activation tensor %d (%s) has no producer" tid
              info.Graph.tname))
    | Graph.Activation, Some nid ->
      if nid < 0 || nid >= n_nodes then
        add
          (Sod2_error.make ~tensor:tid Sod2_error.Invalid_graph
             (Printf.sprintf "tensor %d names undefined producer node %d" tid nid))
      else if not (List.mem tid (Graph.node g nid).Graph.outputs) then
        add
          (Sod2_error.make ~tensor:tid ~node:(Graph.node g nid).Graph.nname
             Sod2_error.Invalid_graph
             (Printf.sprintf "tensor %d not among the outputs of its producer" tid))
    | (Graph.Input _ | Graph.Const _), Some _ ->
      add
        (Sod2_error.make ~tensor:tid Sod2_error.Invalid_graph
           (Printf.sprintf "input/const tensor %d claims a producer" tid))
    | (Graph.Input _ | Graph.Const _), None -> ()
  done;

  (* --- per-node checks --------------------------------------------- *)
  Array.iter
    (fun (nd : Graph.node) ->
      let ctx_op = Op.name nd.Graph.op and ctx_node = nd.Graph.nname in
      (* undefined ids *)
      List.iter
        (fun tid ->
          if not (in_range tid) then
            add
              (Sod2_error.make ~op:ctx_op ~node:ctx_node ~tensor:tid
                 Sod2_error.Invalid_graph
                 (Printf.sprintf "input references undefined tensor %d" tid)))
        nd.Graph.inputs;
      List.iter
        (fun tid ->
          if not (in_range tid) then
            add
              (Sod2_error.make ~op:ctx_op ~node:ctx_node ~tensor:tid
                 Sod2_error.Invalid_graph
                 (Printf.sprintf "output references undefined tensor %d" tid)))
        nd.Graph.outputs;
      (* arity *)
      (match Graph.arity_error nd with
      | Some msg ->
        add (Sod2_error.make ~op:ctx_op ~node:ctx_node Sod2_error.Arity_mismatch msg)
      | None -> ());
      (* output count must match the operator *)
      let want = Op.n_outputs nd.Graph.op in
      let got = List.length nd.Graph.outputs in
      if got <> want then
        add
          (Sod2_error.make ~op:ctx_op ~node:ctx_node Sod2_error.Invalid_graph
             (Printf.sprintf "%s produces %d outputs, node lists %d" ctx_op want got));
      (* topological order: inputs must come from strictly earlier nodes;
         a violation is a cycle (or an out-of-order freeze) *)
      List.iter
        (fun tid ->
          if in_range tid then
            match (Graph.tensor g tid).Graph.producer with
            | Some pnid when pnid >= nd.Graph.nid ->
              add
                (Sod2_error.make ~op:ctx_op ~node:ctx_node ~tensor:tid
                   Sod2_error.Invalid_graph
                   (Printf.sprintf
                      "input %d is produced by node %d, not before node %d: cycle or \
                       non-topological order"
                      tid pnid nd.Graph.nid))
            | _ -> ())
        nd.Graph.inputs;
      (* dtype consistency per Op_class: constants feeding value-determining
         inputs (shape vectors, index lists, slice parameters) must be
         integer tensors *)
      List.iter
        (fun i ->
          match List.nth_opt nd.Graph.inputs i with
          | Some tid when in_range tid -> (
            match Graph.const_value g tid with
            | Some t when Tensor.dtype t <> Tensor.I64 ->
              add
                (Sod2_error.make ~op:ctx_op ~node:ctx_node ~tensor:tid
                   Sod2_error.Dtype_mismatch
                   (Printf.sprintf
                      "value-determining input %d must be an integer tensor, got f32" i))
            | _ -> ())
          | _ -> ())
        (Op_class.value_inputs nd.Graph.op))
    (Graph.nodes g);

  (* --- axis and permutation attributes ------------------------------ *)
  (* A Transpose perm must be a permutation whatever the input; axes are
     checked against the input rank wherever one forward sweep of the
     shape functions knows it.  The sweep needs sound ids and order, so it
     runs only on an otherwise clean graph. *)
  let attr_err (nd : Graph.node) fmt =
    Printf.ksprintf
      (fun msg ->
        add
          (Sod2_error.make ~op:(Op.name nd.Graph.op) ~node:nd.Graph.nname
             Sod2_error.Invalid_graph msg))
      fmt
  in
  let check_axis nd r what a =
    if a < -r || a >= r then attr_err nd "%s %d out of range for an input of rank %d" what a r
  in
  let check_attrs (nd : Graph.node) rank =
    match nd.Graph.op, rank with
    | Op.Transpose perm, _
      when List.sort compare perm <> List.init (List.length perm) Fun.id ->
      attr_err nd "perm [%s] is not a permutation"
        (String.concat "; " (List.map string_of_int perm))
    | Op.Transpose perm, Some r when List.length perm <> r ->
      attr_err nd "perm of length %d on an input of rank %d" (List.length perm) r
    | (Op.Softmax { axis } | Op.LogSoftmax { axis }), Some r -> check_axis nd r "axis" axis
    | (Op.ArgMax { axis; _ } | Op.ArgMin { axis; _ }), Some r -> check_axis nd r "axis" axis
    | Op.Reduce { axes; _ }, Some r -> List.iter (check_axis nd r "reduce axis") axes
    | _ -> ()
  in
  if !errs = [] then begin
    let shapes = Array.make n_tensors Shape.Undef in
    let values = Array.make n_tensors Value_info.undef in
    for tid = 0 to n_tensors - 1 do
      match (Graph.tensor g tid).Graph.kind with
      | Graph.Input s -> shapes.(tid) <- s
      | Graph.Const t ->
        shapes.(tid) <- Shape.of_ints (Tensor.dims t);
        if Tensor.dtype t = Tensor.I64 && Tensor.numel t <= Value_info.max_tracked_elements
        then values.(tid) <- Value_info.of_ints (Tensor.to_int_list t)
      | Graph.Activation -> ()
    done;
    Array.iter
      (fun (nd : Graph.node) ->
        let ins = Array.of_list nd.Graph.inputs in
        check_attrs nd
          (if Array.length ins = 0 then None else Shape.rank shapes.(ins.(0)));
        match
          Shape_fn.forward nd.Graph.op
            {
              Shape_fn.in_shapes = Array.map (fun t -> shapes.(t)) ins;
              in_values = Array.map (fun t -> values.(t)) ins;
            }
        with
        | outs, vals ->
          List.iteri
            (fun i tid ->
              shapes.(tid) <- outs.(i);
              values.(tid) <- vals.(i))
            nd.Graph.outputs
        | exception _ -> ())
      (Graph.nodes g)
  end;

  (* --- <Switch, Combine> pairing ----------------------------------- *)
  let outs = Graph.outputs g in
  let switches =
    Array.to_list (Graph.nodes g)
    |> List.filter_map (fun (nd : Graph.node) ->
           match nd.Graph.op with
           | Op.Switch { branches } -> (
             match List.rev nd.Graph.inputs with
             | pred :: _ -> Some (nd, branches, pred)
             | [] -> None)
           | _ -> None)
  in
  List.iter
    (fun ((nd : Graph.node), branches, _pred) ->
      if branches < 2 then
        add
          (Sod2_error.make ~op:"Switch" ~node:nd.Graph.nname Sod2_error.Invalid_graph
             (Printf.sprintf "Switch with %d branches routes nothing" branches));
      List.iteri
        (fun i tid ->
          if in_range tid && Graph.consumers g tid = [] && not (List.mem tid outs) then
            add
              (Sod2_error.make ~op:"Switch" ~node:nd.Graph.nname ~tensor:tid
                 Sod2_error.Invalid_graph
                 (Printf.sprintf
                    "unpaired Switch: branch %d is neither consumed nor a graph output" i)))
        nd.Graph.outputs)
    switches;
  Array.iter
    (fun (nd : Graph.node) ->
      match nd.Graph.op with
      | Op.Combine { branches } -> (
        if branches < 2 then
          add
            (Sod2_error.make ~op:"Combine" ~node:nd.Graph.nname Sod2_error.Invalid_graph
               (Printf.sprintf "Combine with %d branches merges nothing" branches));
        match List.rev nd.Graph.inputs with
        | pred :: _ ->
          if
            not
              (List.exists
                 (fun (_, sb, spred) -> sb = branches && spred = pred)
                 switches)
          then
            add
              (Sod2_error.make ~op:"Combine" ~node:nd.Graph.nname ~tensor:pred
                 Sod2_error.Invalid_graph
                 (Printf.sprintf
                    "Combine has no matching Switch with %d branches on predicate %d"
                    branches pred))
        | [] -> ())
      | _ -> ())
    (Graph.nodes g);

  match List.rev !errs with [] -> Ok () | errs -> Error errs

let check_exn g =
  match check g with
  | Ok () -> ()
  | Error (e :: _) -> raise (Sod2_error.Error e)
  | Error [] -> ()

let report errs =
  String.concat "\n" (List.map (fun e -> "  - " ^ Sod2_error.to_string e) errs)
