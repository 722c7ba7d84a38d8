"""The size of a network: the number of scalars in its parameter blocks."""


def count_params(model) -> int:
    return sum(arr.size for _, arr in model.param_blocks())
