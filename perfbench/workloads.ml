(* The benchmark's workloads and their seeded request streams.

   A request names a model of the workload, one of that model's shape
   bindings and one of the binding's input tensors.  Every model draws its
   requests in rounds: each round is a seeded permutation of the model's
   whole (binding x input) pool, so a run that serves whole rounds sends
   the same mix of sizes under every seed and only the order differs.
   Models take turns request by request. *)

type model = {
  model : string;  (** {!Zoo} name *)
  bindings : (string * int) list list;  (** shape-variable valuations *)
  inputs_per_binding : int;  (** distinct input tensors per binding *)
}

type warmup =
  | No_warmup  (** every binding is first seen inside the timed region *)
  | Warm_bindings
      (** one untimed request per binding (its first input) before timing;
          pool inputs share the binding's shapes and gate path, so this
          warms every cache the timed requests use *)

type t = {
  name : string;
  exec : string;  (** [--exec] spec, parsed by [Executor.config_of_string] *)
  models : model list;  (** one engine per model *)
  workers : int;  (** engine workers, per model *)
  in_flight : int;  (** closed loop: requests outstanding at once, one client thread *)
  warmup : warmup;
}

let grid_64_224 =
  let sides = [ 64; 96; 128; 160; 192; 224 ] in
  List.concat_map (fun h -> List.map (fun w -> [ "H", h; "W", w ]) sides) sides

let all =
  [
    (* Attention-bound steady state with every cache warm: MatMul, Softmax,
       LayerNorm and fused elementwise.  Conv, BatchNorm, gates and plan
       misses do no work here. *)
    {
      name = "text-steady";
      exec = "fused,arena";
      models =
        [ { model = "codebert"; bindings = [ [ "S", 32 ]; [ "S", 48 ]; [ "S", 64 ] ];
            inputs_per_binding = 2 } ];
      workers = 1;
      in_flight = 1;
      warmup = Warm_bindings;
    };
    (* Conv-bound: im2col GEMM, BatchNorm, pooling and Switch/Combine on
       precompiled variant plans, with outcome prediction and the guarded
       vet-once path.  Distinct images per model so gate outcomes can
       differ.  Softmax/LayerNorm and plan misses do no work here. *)
    {
      name = "vision-gated";
      exec = "fused,arena,guarded,variants=8";
      models =
        List.map
          (fun model -> { model; bindings = [ [ "H", 224; "W", 224 ] ]; inputs_per_binding = 3 })
          [ "skipnet"; "blockdrop" ];
      workers = 1;
      in_flight = 1;
      warmup = Warm_bindings;
    };
    (* The dynamic-shape claim: 36 bindings, above the backend's 32-variant
       fused cap, all first seen inside the timed region — plan
       instantiation, fused specialization, cap overflow to op-by-op and
       arena growth, with two workers on the shared plan-cache lock.  Not
       in BENCHMARK.json: one round takes ~15 s and its throughput spread
       across seeds was 14% at --seconds 10 (see README.md). *)
    {
      name = "shape-churn";
      exec = "fused,arena";
      models = [ { model = "segment-anything"; bindings = grid_64_224; inputs_per_binding = 1 } ];
      workers = 2;
      in_flight = 2;
      warmup = No_warmup;
    };
  ]

let by_name name = List.find_opt (fun w -> w.name = name) all

type request = { m : int; binding : int; input : int }

let pool_size (md : model) = List.length md.bindings * md.inputs_per_binding

(* Requests per round over all models: the stream is back at a balanced
   mix after every multiple of this. *)
let round_length w =
  let nm = List.length w.models in
  nm * List.fold_left (fun acc md -> max acc (pool_size md)) 0 w.models

(* The stream as a generator: the same [seed] yields the same sequence. *)
let stream w ~seed =
  let models = Array.of_list w.models in
  let nm = Array.length models in
  let rngs = Array.init nm (fun i -> Rng.create ((seed * 7919) + i)) in
  let rounds = Array.make nm [||] and pos = Array.make nm 0 in
  let issued = ref 0 in
  fun () ->
    let m = !issued mod nm in
    incr issued;
    let md = models.(m) in
    if pos.(m) = Array.length rounds.(m) then begin
      let perm = Array.init (pool_size md) Fun.id in
      Rng.shuffle rngs.(m) perm;
      rounds.(m) <- perm;
      pos.(m) <- 0
    end;
    let e = rounds.(m).(pos.(m)) in
    pos.(m) <- pos.(m) + 1;
    { m; binding = e / md.inputs_per_binding; input = e mod md.inputs_per_binding }

(* Seed of the input tensor for one pool entry — independent of the order
   requests are drawn in. *)
let input_seed ~seed ~m ~binding ~input =
  Hashtbl.hash (seed, m, binding, input)

(* pool.(m).(binding).(input): the workload's distinct input tensors, made
   from the seed alone.  [path m g env inputs] names the gate path the
   inputs take through model [m] ("" when it has no gates).  Candidates
   are drawn until enough of them take the path of a fixed, seed-free
   anchor input, so every seed runs the same branches: an image on
   another path makes the engine's last-outcome prediction miss on every
   switch, and each miss re-runs the request on the base plan. *)
let make_pool w ~seed ~path =
  Array.of_list
    (List.mapi
       (fun m md ->
         let spec = Option.get (Zoo.by_name md.model) in
         let g = spec.Zoo.build () in
         Array.of_list
           (List.mapi
              (fun binding valuation ->
                let env = Env.of_list valuation in
                let draw s = Zoo.make_inputs spec g env (Rng.create s) in
                let anchor = path m g env (draw (Hashtbl.hash ("anchor", m, binding))) in
                let rec fill input acc =
                  if List.length acc = md.inputs_per_binding then Array.of_list (List.rev acc)
                  else if input >= 64 then
                    failwith (md.model ^ ": no inputs on the anchor's gate path")
                  else
                    let x = draw (input_seed ~seed ~m ~binding ~input) in
                    fill (input + 1) (if path m g env x = anchor then x :: acc else acc)
                in
                fill 0 [])
              md.bindings))
       w.models)
