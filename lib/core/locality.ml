type config = Identity_csr

let default = Identity_csr
