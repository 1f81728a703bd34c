module ppqtraj/benchmark

go 1.24

require ppqtraj v0.0.0

replace ppqtraj => ../
