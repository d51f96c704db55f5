module eagg/bench

go 1.24

require eagg v0.0.0

replace eagg => ../
