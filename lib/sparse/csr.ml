module Dense = Granii_tensor.Dense

type t = {
  n_rows : int;
  n_cols : int;
  row_ptr : int array;
  col_idx : int array;
  values : float array option;
}

let nnz m = m.row_ptr.(m.n_rows)
let is_weighted m = m.values <> None

let value m p = match m.values with None -> 1. | Some v -> v.(p)

let make ~n_rows ~n_cols ~row_ptr ~col_idx ~values =
  if Array.length row_ptr <> n_rows + 1 then
    invalid_arg "Csr.make: row_ptr must have length n_rows + 1";
  if row_ptr.(0) <> 0 then invalid_arg "Csr.make: row_ptr.(0) must be 0";
  for i = 0 to n_rows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then
      invalid_arg "Csr.make: row_ptr must be monotone"
  done;
  let count = row_ptr.(n_rows) in
  if Array.length col_idx <> count then
    invalid_arg "Csr.make: col_idx length must equal row_ptr.(n_rows)";
  Array.iter
    (fun c -> if c < 0 || c >= n_cols then invalid_arg "Csr.make: column out of bounds")
    col_idx;
  (match values with
  | Some v when Array.length v <> count ->
      invalid_arg "Csr.make: values length must equal nnz"
  | Some _ | None -> ());
  { n_rows; n_cols; row_ptr; col_idx; values }

let of_coo ?(keep_values = true) (coo : Coo.t) =
  let n_rows = coo.Coo.n_rows and n_cols = coo.Coo.n_cols in
  let entries = coo.Coo.entries in
  let count = Array.length entries in
  let row_ptr = Array.make (n_rows + 1) 0 in
  Array.iter (fun (r, _, _) -> row_ptr.(r + 1) <- row_ptr.(r + 1) + 1) entries;
  for i = 0 to n_rows - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make count 0 in
  let vals = Array.make count 0. in
  (* COO entries are already sorted by (row, col), so a single pass fills
     each row's segment in column order. *)
  let cursor = Array.copy row_ptr in
  Array.iter
    (fun (r, c, v) ->
      let p = cursor.(r) in
      col_idx.(p) <- c;
      vals.(p) <- v;
      cursor.(r) <- p + 1)
    entries;
  { n_rows;
    n_cols;
    row_ptr;
    col_idx;
    values = (if keep_values then Some vals else None) }

let with_values m values =
  if Array.length values <> nnz m then invalid_arg "Csr.with_values: length mismatch";
  { m with values = Some values }

let drop_values m = { m with values = None }

let row_degrees m = Array.init m.n_rows (fun i -> m.row_ptr.(i + 1) - m.row_ptr.(i))

let col_degrees m =
  let deg = Array.make m.n_cols 0 in
  Array.iter (fun c -> deg.(c) <- deg.(c) + 1) m.col_idx;
  deg

let transpose m =
  let count = nnz m in
  let row_ptr' = Array.make (m.n_cols + 1) 0 in
  Array.iter (fun c -> row_ptr'.(c + 1) <- row_ptr'.(c + 1) + 1) m.col_idx;
  for i = 0 to m.n_cols - 1 do
    row_ptr'.(i + 1) <- row_ptr'.(i + 1) + row_ptr'.(i)
  done;
  let col_idx' = Array.make count 0 in
  let vals' = match m.values with None -> None | Some _ -> Some (Array.make count 0.) in
  let cursor = Array.copy row_ptr' in
  for i = 0 to m.n_rows - 1 do
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let c = m.col_idx.(p) in
      let q = cursor.(c) in
      col_idx'.(q) <- i;
      (match (vals', m.values) with
      | Some dst, Some src -> dst.(q) <- src.(p)
      | None, None -> ()
      | Some _, None | None, Some _ -> assert false);
      cursor.(c) <- q + 1
    done
  done;
  { n_rows = m.n_cols; n_cols = m.n_rows; row_ptr = row_ptr'; col_idx = col_idx'; values = vals' }

(* Shared counting-sort pass: distribute the stored entries of [m] into
   [n_buckets] stable buckets. Entries are visited in row-major storage order,
   so within a bucket they keep that order: CSC construction, for one, gets
   row indices sorted per column. *)
let counting_scatter ~n_buckets ~bucket m =
  let count = nnz m in
  let ptr = Array.make (n_buckets + 1) 0 in
  for i = 0 to m.n_rows - 1 do
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let b = bucket i p in
      if b < 0 || b >= n_buckets then
        invalid_arg "Csr.counting_scatter: bucket out of range";
      ptr.(b + 1) <- ptr.(b + 1) + 1
    done
  done;
  for b = 0 to n_buckets - 1 do
    ptr.(b + 1) <- ptr.(b + 1) + ptr.(b)
  done;
  let order = Array.make count 0 in
  let src_row = Array.make count 0 in
  let cursor = Array.copy ptr in
  for i = 0 to m.n_rows - 1 do
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      let b = bucket i p in
      let q = cursor.(b) in
      order.(q) <- p;
      src_row.(q) <- i;
      cursor.(b) <- q + 1
    done
  done;
  (ptr, order, src_row)

let get m i j =
  let lo = ref m.row_ptr.(i) and hi = ref (m.row_ptr.(i + 1) - 1) in
  let found = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = m.col_idx.(mid) in
    if c = j then begin
      found := value m mid;
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let to_dense m =
  let d = Dense.zeros m.n_rows m.n_cols in
  for i = 0 to m.n_rows - 1 do
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Dense.set d i m.col_idx.(p) (value m p)
    done
  done;
  d

let of_dense ?(eps = 0.) d =
  let rows, cols = Dense.dims d in
  let entries = ref [] in
  for i = rows - 1 downto 0 do
    for j = cols - 1 downto 0 do
      let v = Dense.get d i j in
      if Float.abs v > eps || (eps = 0. && v <> 0.) then entries := (i, j, v) :: !entries
    done
  done;
  of_coo (Coo.make ~n_rows:rows ~n_cols:cols (Array.of_list !entries))

let map_values f m =
  let count = nnz m in
  let src = match m.values with None -> Array.make count 1. | Some v -> v in
  { m with values = Some (Array.map f src) }

let equal_structure a b =
  a.n_rows = b.n_rows && a.n_cols = b.n_cols
  && a.row_ptr = b.row_ptr && a.col_idx = b.col_idx

let equal_approx ?(eps = 1e-9) a b =
  equal_structure a b
  && begin
       let ok = ref true in
       for p = 0 to nnz a - 1 do
         let va = value a p and vb = value b p in
         let bound = eps *. Float.max 1. (Float.max (Float.abs va) (Float.abs vb)) in
         if Float.abs (va -. vb) > bound then ok := false
       done;
       !ok
     end

let iter f m =
  for i = 0 to m.n_rows - 1 do
    for p = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      f i m.col_idx.(p) (value m p)
    done
  done

let pp ppf m =
  Format.fprintf ppf "csr %dx%d nnz=%d%s" m.n_rows m.n_cols (nnz m)
    (if is_weighted m then " weighted" else " unweighted")
