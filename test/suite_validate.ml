(* Tests for the graph validator and the hardened loading path: every zoo
   model must validate cleanly, hand-built malformed graphs must produce
   the right structured defects (all of them, not just the first), and
   malformed serialized graphs must come back as [Error _], never as an
   uncaught exception. *)

let dyn_shape = Shape.of_dims [ Dim.of_int 1; Dim.of_sym "H"; Dim.of_sym "W" ]
let i64_scalar v = Tensor.create_i [ 1 ] [| v |]

let classes_of = List.map (fun (e : Sod2_error.t) -> e.Sod2_error.cls)

let has_class cls errs = List.mem cls (classes_of errs)

let check_fails name expect g =
  match Validate.check g with
  | Ok () -> Alcotest.failf "%s: validator accepted a malformed graph" name
  | Error errs ->
    if not (has_class expect errs) then
      Alcotest.failf "%s: expected a %s defect, got:\n%s" name
        (Sod2_error.class_name expect) (Validate.report errs)

let test_zoo_models_valid () =
  List.iter
    (fun (sp : Zoo.spec) ->
      match Validate.check (sp.Zoo.build ()) with
      | Ok () -> ()
      | Error errs ->
        Alcotest.failf "%s: valid model rejected:\n%s" sp.Zoo.name
          (Validate.report errs))
    Zoo.all

let test_dangling_output () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  let y = Graph.Builder.node1 b (Op.Unary Op.Relu) [ x ] in
  Graph.Builder.set_outputs b [ y; 99 ];
  check_fails "dangling output" Sod2_error.Invalid_graph
    (Graph.Builder.finish_unchecked b)

let test_arity_mismatch () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  let y = Graph.Builder.node1 b (Op.Binary Op.Add) [ x ] in
  Graph.Builder.set_outputs b [ y ];
  check_fails "arity" Sod2_error.Arity_mismatch (Graph.Builder.finish_unchecked b)

let test_unpaired_switch () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  let pred = Graph.Builder.const b ~name:"pred" (i64_scalar 0) in
  let outs = Graph.Builder.node b (Op.Switch { branches = 2 }) [ x; pred ] in
  let b0 = List.nth outs 0 in
  (* branch 1 is neither consumed nor a graph output: unpaired *)
  let y = Graph.Builder.node1 b (Op.Unary Op.Relu) [ b0 ] in
  Graph.Builder.set_outputs b [ y ];
  check_fails "unpaired Switch" Sod2_error.Invalid_graph
    (Graph.Builder.finish_unchecked b)

let test_combine_without_switch () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  let pred = Graph.Builder.const b ~name:"pred" (i64_scalar 0) in
  let y = Graph.Builder.node1 b (Op.Combine { branches = 2 }) [ x; x; pred ] in
  Graph.Builder.set_outputs b [ y ];
  check_fails "Combine without Switch" Sod2_error.Invalid_graph
    (Graph.Builder.finish_unchecked b)

let test_dtype_mismatch () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  (* a Reshape target shape must be an integer tensor; feed it floats *)
  let shp = Graph.Builder.const b ~name:"shape" (Tensor.create_f [ 2 ] [| 1.0; -1.0 |]) in
  let y = Graph.Builder.node1 b Op.Reshape [ x; shp ] in
  Graph.Builder.set_outputs b [ y ];
  check_fails "f32 shape operand" Sod2_error.Dtype_mismatch
    (Graph.Builder.finish_unchecked b)

let test_collects_every_defect () =
  (* one graph, three independent defects: the validator must report all *)
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  let y = Graph.Builder.node1 b (Op.Binary Op.Mul) [ x ] in
  let pred = Graph.Builder.const b ~name:"pred" (i64_scalar 0) in
  let z = Graph.Builder.node1 b (Op.Combine { branches = 2 }) [ y; y; pred ] in
  Graph.Builder.set_outputs b [ z; 123 ];
  match Validate.check (Graph.Builder.finish_unchecked b) with
  | Ok () -> Alcotest.fail "three-defect graph accepted"
  | Error errs ->
    let classes = classes_of errs in
    Alcotest.(check bool) "arity defect" true
      (List.mem Sod2_error.Arity_mismatch classes);
    Alcotest.(check bool) "dangling output defect" true
      (List.mem Sod2_error.Invalid_graph classes);
    Alcotest.(check bool) "at least three defects" true (List.length errs >= 3)

let test_pipeline_rejects_malformed () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" dyn_shape in
  let y = Graph.Builder.node1 b (Op.Binary Op.Add) [ x ] in
  Graph.Builder.set_outputs b [ y ];
  let g = Graph.Builder.finish_unchecked b in
  let cpu = Option.get (Profile.by_name "sd888-cpu") in
  (try
     ignore (Sod2.Pipeline.compile cpu g);
     Alcotest.fail "Pipeline.compile accepted a malformed graph"
   with Sod2_error.Error _ -> ());
  match Sod2.Pipeline.compile_checked cpu g with
  | Ok _ -> Alcotest.fail "Pipeline.compile_checked accepted a malformed graph"
  | Error errs -> Alcotest.(check bool) "defects reported" true (errs <> [])

let test_malformed_text_is_error () =
  (* undefined tensor reference, bad op, truncated file: each must come
     back as [Error _], never as an exception *)
  List.iter
    (fun (name, text) ->
      match Graph_io.of_string text with
      | Ok _ -> Alcotest.failf "%s: malformed text accepted" name
      | Error msg -> Alcotest.(check bool) name true (String.length msg > 0)
      | exception e ->
        Alcotest.failf "%s: uncaught exception %s" name (Printexc.to_string e))
    [
      ( "undefined input tensor",
        "(sod2-graph 1)\n(input 0 x (shape 1 4))\n\
         (node (op relu) (name r) (inputs 7) (outputs 1))\n(outputs 1)\n" );
      ( "unknown op",
        "(sod2-graph 1)\n(input 0 x (shape 1 4))\n\
         (node (op frobnicate) (name r) (inputs 0) (outputs 1))\n(outputs 1)\n" );
      "truncated", "(sod2-graph 1)\n(input 0 x (shape 1 4))\n";
      "garbage", "hello world\n";
      ( "arity violation in file",
        "(sod2-graph 1)\n(input 0 x (shape 1 4))\n\
         (node (op add) (name a) (inputs 0) (outputs 1))\n(outputs 1)\n" );
    ]

(* Axis attributes are checked against the rank one forward shape sweep
   infers, so the defect shows at compile time, not inside a kernel. *)
let one_node_graph op =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_int 2; Dim.of_sym "S" ]) in
  let h = Graph.Builder.node1 b (Op.Unary Op.Relu) [ x ] in
  let y = Graph.Builder.node1 b op [ h ] in
  Graph.Builder.set_outputs b [ y ];
  Graph.Builder.finish_unchecked b

let test_axis_attributes () =
  List.iter
    (fun (name, op) -> check_fails name Sod2_error.Invalid_graph (one_node_graph op))
    [
      "transpose perm with a repeat", Op.Transpose [ 1; 1 ];
      "transpose perm of the wrong rank", Op.Transpose [ 2; 0; 1 ];
      "softmax axis 2 on rank 2", Op.Softmax { axis = 2 };
      "log-softmax axis -3 on rank 2", Op.LogSoftmax { axis = -3 };
      "reduce axis 4 on rank 2", Op.Reduce { rkind = Op.Rsum; axes = [ 0; 4 ]; keepdims = true };
      "argmax axis -3 on rank 2", Op.ArgMax { axis = -3; keepdims = false };
    ];
  List.iter
    (fun op ->
      match Validate.check (one_node_graph op) with
      | Ok () -> ()
      | Error errs -> Alcotest.failf "in-range attribute rejected:\n%s" (Validate.report errs))
    [ Op.Transpose [ 1; 0 ]; Op.Softmax { axis = -1 }; Op.ArgMin { axis = -2; keepdims = true } ]

let suite =
  [
    Alcotest.test_case "axis attributes vs inferred rank" `Quick test_axis_attributes;
    Alcotest.test_case "zoo models validate" `Quick test_zoo_models_valid;
    Alcotest.test_case "dangling output" `Quick test_dangling_output;
    Alcotest.test_case "arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "unpaired Switch" `Quick test_unpaired_switch;
    Alcotest.test_case "Combine without Switch" `Quick test_combine_without_switch;
    Alcotest.test_case "dtype mismatch" `Quick test_dtype_mismatch;
    Alcotest.test_case "collects every defect" `Quick test_collects_every_defect;
    Alcotest.test_case "pipeline rejects malformed" `Quick test_pipeline_rejects_malformed;
    Alcotest.test_case "malformed text is Error" `Quick test_malformed_text_is_error;
  ]
