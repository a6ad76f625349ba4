(* Fused-group kernel execution: fusion groups compiled to single kernels
   must be equivalent to op-by-op execution bit for bit — pointwise/view
   chains (the fused closures share {!Op_semantics} with the reference
   kernels), anchored groups whose chain runs as the C tile's typed
   write-back program, two-phase anchored groups, and pooling tails.  Also
   covers the per-(group × shape) kernel cache counters, the path counters
   and the dtype-aware byte accounting of the execution trace. *)

module RT = Sod2_runtime

let cpu = Profile.sd888_cpu

let with_fused c f =
  let be = RT.Backend.for_compiled RT.Backend.Fused c in
  Fun.protect ~finally:(fun () -> RT.Backend.shutdown be) (fun () -> f be)

let outputs_of ?backend c inputs = snd (RT.Executor.run_real ?backend c ~inputs)

let check_bitexact name want got =
  List.iter2
    (fun (tid, w) (tid', g) ->
      Alcotest.(check int) (name ^ ": output id") tid tid';
      Alcotest.(check (list int)) (name ^ ": dims") (Tensor.dims w) (Tensor.dims g);
      Alcotest.(check string) (name ^ ": kind")
        (Tensor.dtype_name (Tensor.dtype w))
        (Tensor.dtype_name (Tensor.dtype g));
      let dw = Tensor.data_f w and dg = Tensor.data_f g in
      Array.iteri
        (fun i v ->
          if not (Float.equal v dg.(i)) then
            Alcotest.failf "%s: t%d element %d: %h <> %h" name tid i v dg.(i))
        dw)
    want got

let check_close name want got =
  List.iter2
    (fun (tid, w) (tid', g) ->
      Alcotest.(check int) (name ^ ": output id") tid tid';
      if not (Tensor.approx_equal ~eps:1e-5 w g) then
        Alcotest.failf "%s: t%d differs from reference" name tid)
    want got

(* ------------------------------------------------------------------ *)
(* Pointwise chains: bit-for-bit                                       *)
(* ------------------------------------------------------------------ *)

(* x → sigmoid → ×x → gelu → clip, all provably same-shaped under RDP, so
   the whole chain lands in one fusion group with a symbolic leading dim. *)
let pointwise_graph () =
  let b = Graph.Builder.create () in
  let x =
    Graph.Builder.input b ~name:"x" (Shape.of_dims [ Dim.of_sym "N"; Dim.of_int 32 ])
  in
  let s = Graph.Builder.node1 b (Op.Unary Op.Sigmoid) [ x ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; x ] in
  let ge = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ m ] in
  let cl = Graph.Builder.node1 b (Op.Clip (0.05, 0.95)) [ ge ] in
  Graph.Builder.set_outputs b [ cl ];
  x, Graph.Builder.finish b

let test_pointwise_chain_bitexact () =
  let x, g = pointwise_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun (seed, n) ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ n; 32 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "chain n=%d" n) want got)
        [ 0, 1; 1, 7; 2, 33; 3, 64 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "chain actually compiled fused kernels" true
        (fs.RT.Backend.misses >= 1);
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects)

(* Same artifact and backend driven over many random extents: exercises
   variant selection, cache reuse, and the live-variant budget (past the
   cap the group must transparently fall back to op-by-op kernels). *)
let prop_pointwise_random =
  QCheck2.Test.make ~name:"fused pointwise chain matches naive on random extents"
    ~count:20
    QCheck2.Gen.(int_range 1 48)
    (fun n ->
      let x, g = pointwise_graph () in
      let c = Sod2.Pipeline.compile cpu g in
      with_fused c (fun be ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create (7 * n)) [ n; 32 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "random chain n=%d" n) want got;
          true))

(* ------------------------------------------------------------------ *)
(* Broadcast groups and the per-shape cache                            *)
(* ------------------------------------------------------------------ *)

let broadcast_graph () =
  let b = Graph.Builder.create () in
  let a =
    Graph.Builder.input b ~name:"a" (Shape.of_dims [ Dim.of_sym "N"; Dim.of_int 16 ])
  in
  let row = Graph.Builder.input b ~name:"row" (Shape.of_ints [ 16 ]) in
  let s = Graph.Builder.node1 b (Op.Binary Op.Add) [ a; row ] in
  let m = Graph.Builder.node1 b (Op.Binary Op.Mul) [ s; a ] in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ m ] in
  Graph.Builder.set_outputs b [ r ];
  (a, row), Graph.Builder.finish b

let test_broadcast_cache_and_equivalence () =
  let (a, row), g = broadcast_graph () in
  let c = Sod2.Pipeline.compile cpu g in
  Profile.Counters.reset ();
  with_fused c (fun be ->
      let run seed n =
        let rng = Rng.create seed in
        let inputs =
          [ a, Tensor.rand_uniform rng [ n; 16 ]; row, Tensor.rand_uniform rng [ 16 ] ]
        in
        let want = outputs_of c inputs in
        let got = outputs_of ~backend:be c inputs in
        check_bitexact (Printf.sprintf "broadcast n=%d" n) want got
      in
      run 10 4;
      run 11 9;
      (* same extents again: must be served from the kernel cache *)
      run 12 4;
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check int) "one specialization per distinct shape" 2
        fs.RT.Backend.misses;
      Alcotest.(check int) "repeat extents hit the cache" 1 fs.RT.Backend.hits;
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects;
      Alcotest.(check int) "two live variants" 2 fs.RT.Backend.variants;
      (* the same events are visible process-globally *)
      Alcotest.(check bool) "counters recorded per profile" true
        (Profile.Counters.count ~profile:cpu.Profile.name ~kind:"fused-cache-hit" >= 1
        && Profile.Counters.count ~profile:cpu.Profile.name ~kind:"fused-cache-miss"
           >= 2))

(* ------------------------------------------------------------------ *)
(* Anchored groups: GEMM/Conv epilogue fusion                          *)
(* ------------------------------------------------------------------ *)

let test_matmul_epilogue_bitexact () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 31 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 17; 33 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 33; 9 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 9 ]) in
  let mm = Graph.Builder.node1 b Op.MatMul [ x; w ] in
  let ad = Graph.Builder.node1 b (Op.Binary Op.Add) [ mm; bias ] in
  let out = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ ad ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun seed ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ 17; 33 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "matmul+bias+gelu seed=%d" seed) want got)
        [ 40; 41; 42 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "anchored kernel compiled" true (fs.RT.Backend.misses >= 1);
      Alcotest.(check int) "no fused rejections" 0 fs.RT.Backend.rejects;
      Alcotest.(check int) "chain lowered to the write-back program" 0
        fs.RT.Backend.two_phase)

let test_gemm_epilogue_close () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 5 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 17; 33 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 9; 33 ]) in
  let c0 = Graph.Builder.const b ~name:"c0" (Tensor.rand_uniform rng [ 9 ]) in
  let gm =
    Graph.Builder.node1 b
      (Op.Gemm { alpha = 0.7; beta = 1.3; trans_a = false; trans_b = true })
      [ x; w; c0 ]
  in
  let out = Graph.Builder.node1 b (Op.Unary Op.Relu) [ gm ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun seed ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ 17; 33 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "gemm+relu seed=%d" seed) want got)
        [ 50; 51; 52 ];
      Alcotest.(check int) "alpha and beta·C lowered to steps" 0
        (RT.Backend.fused_stats be).RT.Backend.two_phase)

let test_conv_bn_relu_bitexact () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 77 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 2; 3; 12; 12 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 8; 3; 3; 3 ]) in
  let bias = Graph.Builder.const b ~name:"bias" (Tensor.rand_uniform rng [ 8 ]) in
  let scale = Graph.Builder.const b ~name:"scale" (Tensor.rand_uniform rng [ 8 ]) in
  let bn_b = Graph.Builder.const b ~name:"bn_b" (Tensor.rand_uniform rng [ 8 ]) in
  let mean = Graph.Builder.const b ~name:"mean" (Tensor.rand_uniform rng [ 8 ]) in
  let var =
    Graph.Builder.const b ~name:"var"
      (Tensor.map_f (fun v -> v +. 0.5) (Tensor.rand_uniform rng [ 8 ]))
  in
  let conv =
    Graph.Builder.node1 b
      (Op.Conv { stride = 1, 1; pads = 1, 1, 1, 1; dilation = 1, 1; groups = 1 })
      [ x; w; bias ]
  in
  let bn =
    Graph.Builder.node1 b (Op.BatchNorm { eps = 1e-5 }) [ conv; scale; bn_b; mean; var ]
  in
  let out = Graph.Builder.node1 b (Op.Unary Op.Relu) [ bn ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  with_fused c (fun be ->
      List.iter
        (fun seed ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create seed) [ 2; 3; 12; 12 ] ] in
          let want = outputs_of c inputs in
          let got = outputs_of ~backend:be c inputs in
          check_bitexact (Printf.sprintf "conv+bn+relu seed=%d" seed) want got)
        [ 60; 61; 62 ];
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "conv group compiled fused" true
        (fs.RT.Backend.misses >= 1);
      Alcotest.(check int) "chain lowered to the write-back program" 0
        fs.RT.Backend.two_phase)

(* A transposed chain value has no write-back form: the group runs
   two-phase, is counted as such, and still matches op-by-op — a Gemm
   anchor's alpha and beta·C stores included. *)
let test_two_phase_transpose () =
  List.iter
    (fun (name, anchor) ->
      let b = Graph.Builder.create () in
      let rng = Rng.create 9 in
      let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 12; 20 ]) in
      let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 20; 24 ]) in
      let c0 = Graph.Builder.const b ~name:"c0" (Tensor.rand_uniform rng [ 24 ]) in
      let mm =
        match anchor with
        | Op.MatMul -> Graph.Builder.node1 b anchor [ x; w ]
        | _ -> Graph.Builder.node1 b anchor [ x; w; c0 ]
      in
      let tr = Graph.Builder.node1 b (Op.Transpose [ 1; 0 ]) [ mm ] in
      let out = Graph.Builder.node1 b (Op.Unary Op.Gelu) [ tr ] in
      Graph.Builder.set_outputs b [ out ];
      let g = Graph.Builder.finish b in
      let c = Sod2.Pipeline.compile cpu g in
      with_fused c (fun be ->
          let inputs = [ x, Tensor.rand_uniform (Rng.create 4) [ 12; 20 ] ] in
          check_bitexact name (outputs_of c inputs) (outputs_of ~backend:be c inputs);
          let fs = RT.Backend.fused_stats be in
          Alcotest.(check int) (name ^ ": fused, no rejection") 0 fs.RT.Backend.rejects;
          Alcotest.(check int) (name ^ ": one two-phase run") 1 fs.RT.Backend.two_phase))
    [
      "matmul+transpose+gelu", Op.MatMul;
      ( "gemm+transpose+gelu",
        Op.Gemm { alpha = 0.7; beta = 1.3; trans_a = false; trans_b = false } );
    ]

(* Pooling tails: the anchored stem shape Conv+BN+Relu+MaxPool (padded,
   strided) in f32 and in f64, an average-pool tail and a global-average-
   pool tail, each bit-identical to op-by-op naive execution, in both
   memory modes. *)
let test_pool_tails () =
  let graph ~dt pool =
    let b = Graph.Builder.create () in
    let rng = Rng.create 17 in
    let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 1; 3; 15; 13 ]) in
    let const name dims =
      Graph.Builder.const b ~name (Tensor.cast (Tensor.rand_uniform rng dims) dt)
    in
    let w = const "w" [ 8; 3; 3; 3 ] and bias = const "bias" [ 8 ] in
    let p name = const name [ 8 ] in
    let var =
      Graph.Builder.const b ~name:"var"
        (Tensor.cast (Tensor.map_f (fun v -> v +. 0.5) (Tensor.rand_uniform rng [ 8 ])) dt)
    in
    let conv =
      Graph.Builder.node1 b
        (Op.Conv { stride = 2, 2; pads = 1, 1, 1, 1; dilation = 1, 1; groups = 1 })
        [ x; w; bias ]
    in
    let bn =
      Graph.Builder.node1 b (Op.BatchNorm { eps = 1e-5 }) [ conv; p "s"; p "b"; p "m"; var ]
    in
    let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ bn ] in
    let out = Graph.Builder.node1 b pool [ r ] in
    Graph.Builder.set_outputs b [ out ];
    x, Graph.Builder.finish b
  in
  let attrs = { Op.kernel = 3, 3; pool_stride = 2, 2; pool_pads = 1, 1, 1, 1 } in
  List.iter
    (fun (name, dt, pool) ->
      let x, g = graph ~dt pool in
      let c = Sod2.Pipeline.compile cpu g in
      Alcotest.(check bool) (name ^ ": one template with a pooling tail") true
        (Array.exists
           (function Some t -> t.Sod2.Fused_compile.t_pool <> None | None -> false)
           c.Sod2.Pipeline.fused);
      let inputs = [ x, Tensor.cast (Tensor.rand_uniform (Rng.create 21) [ 1; 3; 15; 13 ]) dt ] in
      let want = outputs_of c inputs in
      with_fused c (fun be ->
          check_bitexact name want (outputs_of ~backend:be c inputs);
          let arena ?backend spec =
            let config = Result.get_ok (RT.Executor.config_of_string spec) in
            snd (RT.Executor.run_real ~config ~env:Env.empty ?backend c ~inputs)
          in
          check_bitexact (name ^ " (arena)") (arena "naive,arena")
            (arena ~backend:be "fused,arena");
          let fs = RT.Backend.fused_stats be in
          Alcotest.(check int) (name ^ ": no rejection") 0 fs.RT.Backend.rejects;
          Alcotest.(check int) (name ^ ": lowered") 0 fs.RT.Backend.two_phase))
    [
      "conv+bn+relu+maxpool", Tensor.F32, Op.MaxPool attrs;
      "conv+bn+relu+maxpool (f64)", Tensor.F64, Op.MaxPool attrs;
      "conv+bn+relu+averagepool", Tensor.F32, Op.AveragePool attrs;
      "conv+bn+relu+globalaveragepool", Tensor.F32, Op.GlobalAveragePool;
    ]

let run_arena ?backend c ~inputs spec =
  let config = Result.get_ok (RT.Executor.config_of_string spec) in
  snd (RT.Executor.run_real ~config ~env:Env.empty ?backend c ~inputs)

(* Under f32 a Conv followed by eight BatchNorms needs 1 + 8 × 4 × 2 = 65
   write-back steps, one more than the tile takes: the group must run
   two-phase at specialize time, not fail at every call, in both memory
   modes. *)
let test_long_chain_two_phase () =
  let b = Graph.Builder.create () in
  let rng = Rng.create 41 in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 1; 3; 9; 9 ]) in
  let w = Graph.Builder.const b ~name:"w" (Tensor.rand_uniform rng [ 4; 3; 3; 3 ]) in
  let conv =
    Graph.Builder.node1 b
      (Op.Conv { stride = 1, 1; pads = 1, 1, 1, 1; dilation = 1, 1; groups = 1 })
      [ x; w ]
  in
  let bn i v =
    let p name = Graph.Builder.const b ~name:(Printf.sprintf "%s%d" name i) (Tensor.rand_uniform rng [ 4 ]) in
    let var =
      Graph.Builder.const b ~name:(Printf.sprintf "var%d" i)
        (Tensor.map_f (fun v -> v +. 0.5) (Tensor.rand_uniform rng [ 4 ]))
    in
    Graph.Builder.node1 b (Op.BatchNorm { eps = 1e-5 }) [ v; p "s"; p "b"; p "m"; var ]
  in
  let out = List.fold_left (fun v i -> bn i v) conv [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Graph.Builder.set_outputs b [ out ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  Alcotest.(check bool) "conv and the eight BatchNorms share one template" true
    (Array.exists
       (function
         | Some t -> List.length t.Sod2.Fused_compile.t_members = 9
         | None -> false)
       c.Sod2.Pipeline.fused);
  let inputs = [ x, Tensor.rand_uniform (Rng.create 5) [ 1; 3; 9; 9 ] ] in
  let want = outputs_of c inputs in
  with_fused c (fun be ->
      check_bitexact "conv+8bn" want (outputs_of ~backend:be c inputs);
      check_bitexact "conv+8bn (arena)" (run_arena c ~inputs "naive,arena")
        (run_arena ~backend:be c ~inputs "fused,arena");
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check int) "no rejection" 0 fs.RT.Backend.rejects;
      Alcotest.(check int) "two-phase in both runs" 2 fs.RT.Backend.two_phase)

(* A group with an f64 constant whose chain ends in Cast f32 stores an f32
   terminal, as op-by-op execution does, and in the arena run takes the
   planned f32 slot instead of publishing an f64 tensor. *)
let test_cast_terminal_kind () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 6; 16 ]) in
  let row =
    Graph.Builder.const b ~name:"row"
      (Tensor.cast (Tensor.rand_uniform (Rng.create 3) [ 16 ]) Tensor.F64)
  in
  let s = Graph.Builder.node1 b (Op.Binary Op.Sub) [ x; row ] in
  let r = Graph.Builder.node1 b (Op.Unary Op.Relu) [ s ] in
  let f = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ r ] in
  let e = Graph.Builder.node1 b (Op.Unary Op.Exp) [ f ] in
  (* two consumers end the group at [e], an internal tensor with a slot *)
  let sm = Graph.Builder.node1 b (Op.Softmax { axis = -1 }) [ e ] in
  let neg = Graph.Builder.node1 b (Op.Unary Op.Neg) [ e ] in
  Graph.Builder.set_outputs b [ sm; neg ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  Alcotest.(check bool) "the chain up to the cast has a template" true
    (Array.exists Option.is_some c.Sod2.Pipeline.fused);
  let inputs = [ x, Tensor.rand_uniform (Rng.create 4) [ 6; 16 ] ] in
  let want = outputs_of c inputs in
  with_fused c (fun be ->
      check_bitexact "cast terminal" want (outputs_of ~backend:be c inputs);
      let want = run_arena c ~inputs "naive,arena" in
      Profile.Counters.reset ();
      let got = run_arena ~backend:be c ~inputs "fused,arena" in
      check_bitexact "cast terminal (arena)" want got;
      let count k = Option.value ~default:0 (List.assoc_opt k (Profile.Counters.by_kind ())) in
      Alcotest.(check int) "the fused kernel stored into its f32 slot" 1
        (count "arena-dest-store");
      Alcotest.(check int) "no rejection" 0 (RT.Backend.fused_stats be).RT.Backend.rejects)

(* Every anchored group of the vision and text zoo models whose ops are in
   the fused vocabulary gets a template and lowers to the write-back
   program (no two-phase run), and the fused run equals op-by-op
   [blocked] execution bit for bit.  Groups without a template are counted
   once per run. *)
let test_zoo_anchored_groups_lower () =
  let vocabulary =
    [
      "Conv"; "MatMul"; "Gemm"; "BatchNormalization"; "Relu"; "Add"; "Mul"; "Gelu";
      "MaxPool"; "AveragePool"; "GlobalAveragePool";
    ]
  in
  List.iter
    (fun (name, env) ->
      let sp = Option.get (Zoo.by_name name) in
      let g = Sod2_experiments.Harness.graph_of sp in
      let c = Sod2.Pipeline.compile cpu g in
      let untemplated = ref 0 in
      Array.iteri
        (fun gid (grp : Sod2.Fusion.group) ->
          let ops =
            List.map (fun m -> Op.name (Graph.node g m).Graph.op) grp.Sod2.Fusion.members
          in
          if List.length ops > 1 then
            match c.Sod2.Pipeline.fused.(gid) with
            | Some _ -> ()
            | None ->
              incr untemplated;
              if List.for_all (fun o -> List.mem o vocabulary) ops then
                Alcotest.failf "%s: group %s has no template" name (String.concat "+" ops))
        c.Sod2.Pipeline.fusion_plan.Sod2.Fusion.groups;
      let inputs = Zoo.make_inputs sp g (Env.of_list env) (Rng.create 8) in
      let blocked = RT.Backend.for_compiled RT.Backend.Blocked c in
      let want =
        Fun.protect
          ~finally:(fun () -> RT.Backend.shutdown blocked)
          (fun () -> outputs_of ~backend:blocked c inputs)
      in
      with_fused c (fun be ->
          check_bitexact name want (outputs_of ~backend:be c inputs);
          let fs = RT.Backend.fused_stats be in
          Alcotest.(check int) (name ^ ": no rejection") 0 fs.RT.Backend.rejects;
          Alcotest.(check int) (name ^ ": no two-phase run") 0 fs.RT.Backend.two_phase;
          Alcotest.(check bool)
            (name ^ ": op-by-op runs counted per template-less group")
            true
            (fs.RT.Backend.no_template <= !untemplated
            && (name <> "codebert" || fs.RT.Backend.no_template = !untemplated))))
    [ "skipnet", [ "H", 64; "W", 64 ]; "blockdrop", [ "H", 64; "W", 64 ]; "codebert", [ "S", 16 ] ]

(* ------------------------------------------------------------------ *)
(* End-to-end zoo model on the fused backend                           *)
(* ------------------------------------------------------------------ *)

let test_zoo_model_fused_matches_naive () =
  let sp = Option.get (Zoo.by_name "yolov6") in
  let g = Sod2_experiments.Harness.graph_of sp in
  let c = Sod2.Pipeline.compile cpu g in
  let env = Env.of_list [ "H", 64; "W", 64 ] in
  let inputs = Zoo.make_inputs sp g env (Rng.create 13) in
  let want = outputs_of c inputs in
  with_fused c (fun be ->
      let got = outputs_of ~backend:be c inputs in
      check_close "yolov6" want got;
      let fs = RT.Backend.fused_stats be in
      Alcotest.(check bool) "model uses fused kernels" true
        (fs.RT.Backend.misses >= 1))

(* ------------------------------------------------------------------ *)
(* Guarded execution with the fused backend                            *)
(* ------------------------------------------------------------------ *)

let test_guarded_fused_clean () =
  let sp = Option.get (Zoo.by_name "skipnet") in
  let g = Sod2_experiments.Harness.graph_of sp in
  let c = Sod2.Pipeline.compile cpu g in
  let env = Env.of_list [ "H", 64; "W", 64 ] in
  let inputs = Zoo.make_inputs sp g env (Rng.create 3) in
  let expected = RT.Reference.run g ~inputs in
  with_fused c (fun be ->
      let r = RT.Guarded_exec.run ~backend:be c ~env ~inputs in
      Alcotest.(check int) "no incidents" 0 (List.length r.RT.Guarded_exec.incidents);
      List.iter2
        (fun (t1, v1) (t2, v2) ->
          Alcotest.(check int) "output id" t1 t2;
          if not (Tensor.approx_equal ~eps:1e-4 v1 v2) then
            Alcotest.failf "guarded fused output t%d diverges" t1)
        expected r.RT.Guarded_exec.outputs)

(* ------------------------------------------------------------------ *)
(* Dtype-aware trace byte accounting                                   *)
(* ------------------------------------------------------------------ *)

let test_trace_i64_bytes () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.input b ~name:"x" (Shape.of_ints [ 4 ]) in
  let s = Graph.Builder.node1 b (Op.Binary Op.Add) [ x; x ] in
  let o = Graph.Builder.node1 b (Op.Cast Tensor.F32) [ s ] in
  Graph.Builder.set_outputs b [ s; o ];
  let g = Graph.Builder.finish b in
  let c = Sod2.Pipeline.compile cpu g in
  let inputs = [ x, Tensor.of_int_list [ 1; -2; 3; 4 ] ] in
  let trace, _ = RT.Executor.run_real c ~inputs in
  let bytes_of tid =
    match
      List.find_opt (fun e -> e.RT.Executor.te_tid = tid) trace.RT.Executor.events
    with
    | Some e -> e.RT.Executor.te_bytes
    | None -> Alcotest.failf "no tensor event for t%d" tid
  in
  Alcotest.(check int) "I64 tensor counts 8 bytes/element" 32 (bytes_of s);
  Alcotest.(check int) "F32 tensor counts 4 bytes/element" 16 (bytes_of o)

let suite =
  [
    Alcotest.test_case "pointwise chain: fused = naive (bit-exact)" `Quick
      test_pointwise_chain_bitexact;
    Alcotest.test_case "broadcast group: cache and equivalence" `Quick
      test_broadcast_cache_and_equivalence;
    Alcotest.test_case "matmul epilogue: fused close to naive" `Quick
      test_matmul_epilogue_bitexact;
    Alcotest.test_case "gemm epilogue: fused close to naive" `Quick
      test_gemm_epilogue_close;
    Alcotest.test_case "conv+bn+relu: fused close to naive" `Quick
      test_conv_bn_relu_bitexact;
    Alcotest.test_case "zoo model: fused backend end-to-end" `Quick
      test_zoo_model_fused_matches_naive;
    Alcotest.test_case "guarded exec: fused backend clean run" `Quick
      test_guarded_fused_clean;
    Alcotest.test_case "trace: I64 tensors count 8 bytes" `Quick test_trace_i64_bytes;
    Alcotest.test_case "matmul+transpose: two-phase, counted, bit-exact" `Quick
      test_two_phase_transpose;
    Alcotest.test_case "pooling tails: fused = naive (bit-exact)" `Quick test_pool_tails;
    Alcotest.test_case "conv+8 batchnorms: too long to lower, two-phase" `Quick
      test_long_chain_two_phase;
    Alcotest.test_case "cast f32 terminal: fused kernel stores f32" `Quick
      test_cast_terminal_kind;
    Alcotest.test_case "zoo anchored groups lower, fused = blocked" `Quick
      test_zoo_anchored_groups_lower;
    QCheck_alcotest.to_alcotest prop_pointwise_random;
  ]
