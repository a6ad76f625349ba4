(* Output comparison against the Reference interpreter, and the error
   ratio the benchmark reports. *)

type outputs = (Graph.tensor_id * Tensor.t) list

(* DESIGN.md §14: fused groups and the blocked GEMM/Conv kernels reproduce
   the reference's f32 stores; the tolerance the fused test suites apply
   absorbs reassociated elementwise epilogues. *)
let eps = 1e-4

let agrees (reference : outputs) (outputs : outputs) =
  List.length reference = List.length outputs
  && List.for_all2
       (fun (ta, va) (tb, vb) ->
         ta = tb && Tensor.dims va = Tensor.dims vb && Tensor.approx_equal ~eps va vb)
       reference outputs

let mismatches reference responses =
  List.length (List.filter (fun o -> not (agrees reference o)) responses)

(* Failed + rejected (shed and expired requests settle as failed) + oracle
   mismatches, over every request submitted. *)
let error_ratio ~submitted ~failed ~rejected ~mismatches =
  Stats.ratio (float_of_int (failed + rejected + mismatches)) (float_of_int submitted)
